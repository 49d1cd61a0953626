"""Space-efficient obstruction-free test-and-set over simulated shared
registers, with deterministic schedule exploration and history checking."""
