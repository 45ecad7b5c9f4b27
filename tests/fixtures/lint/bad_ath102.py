"""Fixture: ATH102 same-instant handlers racing on shared state."""


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.total_bytes = 0

    def _on_probe(self):
        self.total_bytes += 100

    def _on_drain(self):
        self.total_bytes = 0

    def arm(self):
        self.sim.at(5_000, self._on_probe)
        self.sim.at(5_000, self._on_drain)  # line 17: same tick, both touch total_bytes

    def arm_periodic(self):
        self.sim.every(1_000, self._on_probe)
        self.sim.every(1_000, self._on_drain)  # line 21: same period and phase

    def arm_posted(self):
        self.sim.at(7_000, self._on_probe)
        self.sim.post(7_000, self._on_drain)  # line 25: a post fires where `at` does
