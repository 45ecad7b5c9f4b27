"""Fixture: ATH008 late-binding loop captures in scheduled lambdas."""


def schedule(sim, ran, packets, times):
    for packet in packets:
        sim.at(1_000, lambda: ran.send_uplink(1, packet))  # line 6: late bind
    for i, t_us in enumerate(times):
        sim.every(t_us, lambda: ran.retire(i))  # line 8: captures `i`
    for packet in packets:
        sim.call_later(10, lambda p=packet: ran.send_uplink(1, p))  # fine
    for t_us in times:
        sim.at(t_us, lambda now=t_us: ran.poll(now))  # fine: default-bound
    for t_us in times:
        sim.post(t_us, lambda: ran.poll(t_us))  # line 14: late bind
