import os
from dataclasses import replace

import pytest

from hbab import sampler as sampler_module


class ChainRuns:
    """Where ``sample`` ran its chains: read from a file that every chain,
    forked or not, appends (pid of the process that called ``sample``, that
    process's count of ``sample`` calls so far, pid that ran the chain and
    its parent's pid) to."""

    def __init__(self, record):
        self.record = record

    def fits(self) -> dict:
        """Fit (calling pid, call count) -> set of (pid, parent pid) of the
        processes that ran its chains."""
        by_fit = {}
        if self.record.exists():
            for line in self.record.read_text().splitlines():
                caller, count, pid, parent = map(int, line.split())
                by_fit.setdefault((caller, count), set()).add((pid, parent))
        return by_fit

    def callers(self) -> set:
        return {caller for caller, _ in self.fits()}

    def serial(self) -> bool:
        """Some fit ran, and every fit ran its chains in its own process."""
        fits = self.fits()
        return bool(fits) and all({pid for pid, _ in runs} == {caller}
                                  for (caller, _), runs in fits.items())

    def forked(self, processes: int) -> bool:
        """Some fit ran, and every fit ran its chains in up to ``processes``
        other processes, children of its own."""
        fits = self.fits()
        return bool(fits) and all({parent for _, parent in runs} == {caller}
                                  and len(runs) <= processes
                                  for (caller, _), runs in fits.items())


@pytest.fixture
def chain_runs(tmp_path, monkeypatch):
    """A ``ChainRuns`` of every ``sample`` call from now on."""
    record = tmp_path / "chain_runs"
    fork_map, fits = sampler_module.fork_map, [0]

    def marked_map(fn, n, limit):
        fits[0] += 1
        fit = f"{os.getpid()} {fits[0]}"

        def marked(i):
            with open(record, "a") as fh:
                fh.write(f"{fit} {os.getpid()} {os.getppid()}\n")
            return fn(i)

        return fork_map(marked, n, limit)

    # ``sample`` looks ``fork_map`` up in its module; ``sim`` holds its own
    # reference, so repetitions are not marked.
    monkeypatch.setattr(sampler_module, "fork_map", marked_map)
    return ChainRuns(record)


@pytest.fixture
def nuts_fallback(monkeypatch):
    """Every hierarchical look of ``sim.look_estimates`` from now on falls
    back to NUTS: its nested Laplace fit runs, and its record reads k-hat
    0.9. Forked repetition workers inherit the patch."""
    import hbab.sim

    fit_laplace = hbab.sim.fit_laplace

    def untrusted(*args):
        fit = fit_laplace(*args)
        return replace(fit, record=replace(fit.record, k_hat=0.9))

    monkeypatch.setattr(hbab.sim, "fit_laplace", untrusted)
