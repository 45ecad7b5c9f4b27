"""Fixture: ATH006 event-handler hygiene on the engine."""

FRAMES_SENT = 0


def start(sim, sender, frames):
    sim.call_later(1_000, sender.tick())  # line 7: invoked immediately
    for frame in frames:
        sim.at(2_000, lambda f: sender.push(f))  # line 9: undefaulted lambda arg

    def on_slot():
        global FRAMES_SENT
        FRAMES_SENT += 1

    sim.every(2_500, on_slot)  # line 15: handler mutates state via `global`
    sim.post(3_000, sender.flush())  # line 16: invoked immediately
