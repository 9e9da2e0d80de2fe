"""The traced benchmark's span wrappers (bench/spans.py) against the library.

The wrappers rebind the names the library looks up in its module globals,
so a library change that calls a layer some other way drops its span. This
runs one short operation of each per-second workload, and one pass of the
decision workload, with the wrappers installed, and checks that every layer
the workload reports recorded a span and that tracing changed no output.
"""

from pathlib import Path

import numpy as np
import pytest

from oft.fusion import MwlNetwork
from oft.microworld import ScenarioConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
SECONDS = 120


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import closed_loop
    import monitor_replay
    import spans
    return spans, closed_loop, monitor_replay


def test_every_layer_records_a_span_and_tracing_changes_no_output(tmp_path, bench):
    spans, closed_loop, monitor_replay = bench
    net = MwlNetwork.default()
    config = ScenarioConfig(operator="degrading-overload", seed=1, dfa=True,
                            duration_s=SECONDS, phase_split_s=SECONDS // 2)
    paths, _load, _facts = monitor_replay.write_recording(
        np.random.default_rng(1), tmp_path / "recording", duration=SECONDS)

    def outputs(tag, recorder):
        """Both operations' outputs; `recorder.op` names the one running."""
        log, out = tmp_path / f"{tag}.jsonl", tmp_path / tag
        recorder.op = "closed_loop"
        closed_loop._session(config, log, net)
        recorder.op = "monitor_replay"
        monitor_replay._replay(paths, out, "session", net)
        recorder.op = None
        return [log.read_bytes()] + [(out / name).read_bytes() for name in monitor_replay.OUTPUTS]

    untraced = outputs("untraced", spans.Recorder())  # not installed, so it records nothing
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        traced = outputs("traced", recorder)
    finally:
        recorder.uninstall()
    assert traced == untraced
    # each JSONL file an operation writes is written by a traced dump_jsonl
    log, outs = traced[0], dict(zip(monitor_replay.OUTPUTS, traced[1:]))
    assert recorder.counts[("closed_loop", "jsonl.bytes")] == len(log)
    assert recorder.counts[("monitor_replay", "jsonl.bytes")] == \
        len(outs["mwl.jsonl"]) + len(outs["events.jsonl"])
    for workload in (closed_loop, monitor_replay):
        recorded = {name for name, *_, op in recorder.spans if op == workload.__name__}
        assert set(workload.LAYERS) - recorded == set(), workload.__name__


def test_every_decision_layer_records_a_span_and_tracing_changes_no_digest(bench):
    import decision

    spans = bench[0]
    ops = decision.build(1, None, None, None).ops

    def digests(recorder, first):
        """Each op's digest; its inspect must report no problem."""
        out = []
        for i, op in enumerate(ops):
            recorder.op = i
            output = op.run()
            recorder.op = None
            problems, digest, _info = op.inspect(output, first)
            assert problems == [], (i, op.kind, problems)
            out.append(digest)
        return out

    untraced = digests(spans.Recorder(), True)  # not installed, so it records nothing
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        traced = digests(recorder, False)
    finally:
        recorder.uninstall()
    assert traced == untraced
    recorded = {name for name, *_ in recorder.spans}
    assert set(decision.LAYERS) - recorded == set()
