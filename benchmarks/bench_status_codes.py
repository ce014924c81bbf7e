"""E1 — Table 1 / Figure 6: INC output-port status codes.

Paper claim: the 3-bit status register has exactly six legal values; the
two excluded codes (101, 111) never arise.  We run live traffic with
continuous compaction and histogram every observed port code, confirming
the register vocabulary and measuring how often each legal code occurs.
"""

from __future__ import annotations

from conftest import report

from repro.analysis.tables import render_table
from repro.core import Message, RMBConfig, RMBRing
from repro.core.ports import all_ports
from repro.core.status import CODE_MEANINGS, LEGAL_CODES


def observe_code_histogram(nodes=12, lanes=4, messages=24, ticks=600):
    ring = RMBRing(RMBConfig(nodes=nodes, lanes=lanes, cycle_period=2.0),
                   seed=1)
    for index in range(messages):
        ring.submit(Message(index, index % nodes,
                            (index * 5 + 3) % nodes
                            if (index * 5 + 3) % nodes != index % nodes
                            else (index + 1) % nodes,
                            data_flits=20))
    histogram = {code: 0 for code in range(8)}
    for _ in range(ticks):
        ring.run(1)
        for view in all_ports(ring.grid, ring.buses):
            histogram[view.code] += 1
    ring.drain(max_ticks=200_000)
    return histogram


def test_e1_status_code_census(benchmark):
    histogram = benchmark(observe_code_histogram)
    rows = []
    for code in range(8):
        rows.append({
            "code": f"{code:03b}",
            "meaning": CODE_MEANINGS[code],
            "legal": "yes" if code in LEGAL_CODES else "NO",
            "observed": histogram[code],
        })
    text = render_table(
        rows, title="E1  Table 1: status-code census over a live run"
    )
    report("E1_status_codes", text)
    # Paper property: the two disallowed codes never occur.
    assert histogram[0b101] == 0
    assert histogram[0b111] == 0
    # Traffic actually exercised the connective codes.
    assert histogram[0b010] > 0
    assert histogram[0b100] > 0
