import enum
import math
import sys
import threading

import mpmath as mp
import pytest

mp.mp.dps = 25


def pytest_make_parametrize_id(config, val, argname):
    """An enum member's test id is ``Class.NAME`` on every Python version, as before the
    enums became ``str`` enums, which pytest would otherwise name by their values."""
    return f"{type(val).__name__}.{val.name}" if isinstance(val, enum.Enum) else None


def sv_float(sv) -> float:
    return sv.to_float()


def sv_relerr(sv, true: float) -> float:
    """Relative error of a ScaledValue against a float-range reference."""
    if true == 0.0:
        return abs(sv.to_float())
    return abs((sv.to_float() - true) / true)


def log_relerr(sv, log_true: float) -> float:
    """Relative error when only the log of the reference fits in a float."""
    return abs(math.expm1(sv.log_abs - log_true))


def threads_disagree(fn, cases: list, passes: int, threads: int = 6) -> list:
    """The cases where ``fn(*case)``, called ``passes`` times over ``cases`` from
    each of ``threads`` threads (each from its own start) at a 1e-6 s switch
    interval, differed from a single-threaded call made first."""
    expected = [fn(*case) for case in cases]
    wrong, done = [], []

    def work(shift):
        for _ in range(passes):
            for i in range(len(cases)):
                j = (i + shift) % len(cases)
                if fn(*cases[j]) != expected[j]:
                    wrong.append(cases[j])
        done.append(shift)  # a thread that raised never gets here

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert sorted(done) == list(range(threads))
    return wrong


@pytest.fixture(scope="session")
def mp_dps():
    return mp.mp.dps
