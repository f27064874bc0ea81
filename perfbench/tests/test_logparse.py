from perfbench.logparse import (
    is_dispatch_line,
    is_merged_line,
    parse_batch_summary,
    parse_job_timings,
    parse_shard_log,
)

SHARD_LOG = """\
[shard coord]    0.000s dispatching 600 jobs as 8 chunks over 2 workers
[shard 0]    0.002s chunk 0 start: 75 jobs
[shard 1]    0.003s chunk 1 start: 75 jobs
[shard 1]    0.153s chunk 1 done in 0.150s
[shard 0]    0.228s chunk 0 done in 0.225s
[shard 1]    0.898s chunk 6 done in 0.295s
[shard 1]    0.899s chunk 7 start: 75 jobs (stolen)
[shard 0]    0.980s chunk 7 done in 0.301s
[shard 1]    1.220s chunk 7 done (duplicate, discarded) in 0.321s
[shard 0]    1.300s chunk 5 lost: worker died
[shard coord]    1.520s merged 8 chunks (retries=1, steals=1)
600 jobs in 1.32s with 2 worker(s), kernel numpy, cache hit rate 2% [busy_time 303h/16167m/0d, jobs 0h/600m/4d]
packing engine: cold_solves 303, memo_hits 0, resolves 601
"""


def test_shard_log_counts_steals_and_duplicates():
    run = parse_shard_log(SHARD_LOG.splitlines())
    assert run.jobs == 600
    assert run.chunks == 8
    assert run.executions == 3
    assert run.steals == 1
    assert run.duplicates == 1
    assert run.retries == 1
    assert run.useful_ratio == 8 / 3


def test_dispatch_and_merged_lines():
    lines = SHARD_LOG.splitlines()
    assert [is_dispatch_line(line) for line in lines].count(True) == 1
    assert is_dispatch_line(lines[0])
    assert is_merged_line(lines[10])
    assert not is_merged_line(lines[8])


def test_batch_summary_line():
    summary = parse_batch_summary(SHARD_LOG.splitlines())
    assert summary.wall == 1.32
    assert summary.workers == 2
    assert summary.cache == {
        "busy_time": {"hits": 303, "misses": 16167, "disk_hits": 0},
        "jobs": {"hits": 0, "misses": 600, "disk_hits": 4},
    }


def test_batch_summary_without_cache():
    summary = parse_batch_summary(["3 jobs in 0.10s with 1 worker(s), kernel python, cache hit rate 0%"])
    assert summary.cache == {}
    assert parse_batch_summary(["nothing here"]) is None


def test_job_timings():
    lines = ["[job 0000] deep/000.json/victim: 0.125s", "[job 0001] sys-1/c0: 2.000s", "other"]
    assert parse_job_timings(lines) == [0.125, 2.0]
