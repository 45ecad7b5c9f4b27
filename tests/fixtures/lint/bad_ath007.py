"""Fixture: ATH007 — components appending to trace record lists."""


def deliver(topology, packet, tb, grants):
    topology.trace.packets.append(packet)  # line 5: bypasses the sink layer
    topology.trace.transport_blocks.extend([tb])  # line 6: ditto for TBs


class Recorder:
    def __init__(self, trace):
        self.trace = trace

    def on_frame(self, frame):
        self.trace.frames.append(frame)  # line 14: should be sink.emit(frame)
