"""The strategy registry: the one module that calls dispatch_run."""

from repro.run import dispatch_run


class Strategy:
    name = "hypercube"

    def _run(self, query, database, p, seed, settings, **overrides):
        return dispatch_run(
            self.name, query, database, p, seed=seed, settings=settings,
            **overrides,
        )
