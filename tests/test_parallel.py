"""`parallel.fork_map`, and the lockstep trainer, the lasso ranking, the
scenario chains and the train/test writer that run on it, forked against
serial.

The usable CPU count is patched, so the forked path runs on a one-CPU
machine too.  After every call no child may be left: `os.waitpid(-1,
WNOHANG)` raises ChildProcessError only when this process has none.
"""

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ddsids import detector, evalcli, featsel, flowmeter, parallel, simnet
from ddsids.detector import TrainConfig, TrainJob
from ddsids.evalcli import ExperimentPlan, build_cache, main, write_split
from test_featsel import dataset_from
from test_lockstep_train import LABELS, assert_same_bytes, dataset
from test_reader_equivalence import snapshot


def cpus(monkeypatch, count):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: count)


def counted_forks(monkeypatch) -> list:
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Boom(Exception):
    pass


def local_exception():
    class Local(Exception):  # a local class does not pickle
        pass

    return Local("no way back")


class TwoArgs(Exception):
    """Pickles, but unpickling calls it with its one message argument."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


class TestForkMap:
    def test_results_in_task_order_spread_over_the_workers(self, monkeypatch):
        cpus(monkeypatch, 2)
        me = os.getpid()
        results = parallel.fork_map(lambda t: (t * t, os.getpid()), range(5))
        assert [r for r, _ in results] == [0, 1, 4, 9, 16]
        assert [pid == me for _, pid in results] == [True, False, True, False, True]
        assert results[1][1] == results[3][1]
        assert_no_child_left()

    def test_one_worker_per_cpu(self, monkeypatch):
        cpus(monkeypatch, 3)
        forks = counted_forks(monkeypatch)
        assert parallel.fork_map(lambda t: t + 1, range(7)) == list(range(1, 8))
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("count, tasks", [(1, range(4)), (4, [5])])
    def test_one_cpu_or_one_task_never_forks(self, monkeypatch, count, tasks):
        cpus(monkeypatch, count)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert parallel.fork_map(lambda t: -t, tasks) == [-t for t in tasks]

    def test_child_exception_keeps_type_and_message(self, monkeypatch):
        cpus(monkeypatch, 2)

        def task(t):
            if t == 1:
                raise Boom(f"task {t} failed")
            return t

        with pytest.raises(Boom, match="^task 1 failed$") as raised:
            parallel.fork_map(task, [0, 1])
        assert "in forked worker" in str(raised.value.__cause__)
        assert_no_child_left()

    @pytest.mark.parametrize("exc, text", [(local_exception(), "Local: no way back"),
                                           (TwoArgs("no", "return"), "TwoArgs: no return")])
    def test_exception_that_does_not_survive_pickling_becomes_its_text(self, monkeypatch, exc, text):
        cpus(monkeypatch, 2)

        def task(t):
            if t:
                raise exc
            return t

        with pytest.raises(RuntimeError, match=f"^{text}$"):
            parallel.fork_map(task, [0, 1])
        assert_no_child_left()

    def test_killed_child_is_an_error_not_a_hang(self, monkeypatch):
        cpus(monkeypatch, 2)

        def task(t):
            if t:
                os.kill(os.getpid(), signal.SIGKILL)
            return t

        with pytest.raises(RuntimeError, match=r"ended without sending its results \(killed by signal 9\)"):
            parallel.fork_map(task, [0, 1])
        assert_no_child_left()

    def test_parent_failure_kills_a_running_child(self, monkeypatch):
        cpus(monkeypatch, 2)

        def task(t):
            if t:
                time.sleep(60)
            raise Boom("parent")

        started = time.monotonic()
        with pytest.raises(Boom, match="parent"):
            parallel.fork_map(task, [0, 1])
        assert time.monotonic() - started < 30
        assert_no_child_left()

    def test_child_does_not_fork_again(self, monkeypatch):
        cpus(monkeypatch, 2)
        inner = parallel.fork_map(lambda t: parallel.fork_map(lambda u: os.getpid(), [0, 1]), [0, 1])
        assert len(set(inner[0])) == 2
        assert len(set(inner[1])) == 1 and inner[1][0] not in inner[0]
        assert_no_child_left()

    def test_openblas_held_at_one_thread_then_restored(self, monkeypatch):
        get_threads = parallel.openblas_call(parallel.OPENBLAS_GET_THREADS)
        set_threads = parallel.openblas_call(parallel.OPENBLAS_SET_THREADS, restype=None, argtypes=[ctypes.c_int])
        if get_threads is None or set_threads is None:
            pytest.skip("no OpenBLAS loaded")
        cpus(monkeypatch, 2)
        before = get_threads()
        set_threads(2)
        try:
            assert parallel.fork_map(lambda t: get_threads(), [0, 1]) == [1, 1]
            assert get_threads() == 2
        finally:
            set_threads(before)


def experiment_like_jobs():
    """Jobs shaped like the experiment's: three experts on benign plus their
    attack and a single model on every row, whose row counts leave partial
    last batches; a 0-epoch job; and a second shape group."""
    rng = np.random.default_rng(11)
    labels = list(LABELS) + [str(lab) for lab in rng.choice(LABELS, size=263)]
    ds = dataset(labels, 12, seed=12)
    shape = detector.default_shape(12)
    jobs = [
        TrainJob(ds, shape, TrainConfig(epochs=3, seed=21 + i),
                 np.flatnonzero([lab in ("benign", attack) for lab in labels]))
        for i, attack in enumerate(("dos", "clone", "malsub"))
    ]
    jobs.append(TrainJob(ds, shape, TrainConfig(epochs=3, seed=24)))
    jobs.append(TrainJob(ds, shape, TrainConfig(epochs=0, seed=25)))
    wide = [12, 12, 12, 12, 1]
    jobs += [TrainJob(ds, wide, TrainConfig(epochs=2, seed=s, batch_size=20)) for s in (26, 27)]
    return jobs


class TestForkedStages:
    def test_train_many_forked_is_serial_bit_for_bit(self, monkeypatch):
        jobs = experiment_like_jobs()
        cpus(monkeypatch, 1)
        serial = detector.train_many(jobs)
        cpus(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        forked = detector.train_many(jobs)
        assert len(forks) == 1
        for a, b in zip(forked, serial):
            assert_same_bytes(a, b)
        assert_no_child_left()

    def test_zero_epoch_jobs_fill_every_part(self, monkeypatch):
        ds = dataset(list(LABELS) * 10, 3, seed=8)
        jobs = [TrainJob(ds, [3, 3, 3, 3, 1], TrainConfig(epochs=0, seed=s)) for s in range(3)]
        cpus(monkeypatch, 3)
        for job, model in zip(jobs, detector.train_many(jobs)):
            assert model.loss_curve == [] and model.seed == job.config.seed
        assert_no_child_left()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_diverging_job_message_survives_a_child(self, monkeypatch):
        ds = dataset(list(LABELS) * 30, 4, seed=6)
        shape = detector.default_shape(4)
        wild = TrainJob(ds, shape, TrainConfig(epochs=3, seed=1, learning_rate=1e300))
        calm = [TrainJob(ds, shape, TrainConfig(epochs=3, seed=s)) for s in (2, 3)]
        cpus(monkeypatch, 1)
        with pytest.raises(ValueError) as serial:
            detector.train_many([calm[0], wild, calm[1]])
        cpus(monkeypatch, 2)
        with pytest.raises(ValueError) as forked:
            detector.train_many([calm[0], wild, calm[1]])
        assert str(forked.value) == str(serial.value)
        assert str(forked.value).startswith("training diverged: non-finite loss")
        assert "in forked worker" in str(forked.value.__cause__)
        assert_no_child_left()

    def test_rank_lasso_forked_is_serial_bit_for_bit(self, monkeypatch):
        # Two identical columns near the intercept, so some fits hit the cap.
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (150, 6))
        X[:, 1] = X[:, 0] = 0.9 + 0.05 * rng.uniform(0, 1, 150)
        ds = dataset_from(X, ["benign" if v else "dos" for v in X[:, 0] + 0.02 * X[:, 2] > 0.925])
        cpus(monkeypatch, 1)
        serial = featsel.rank_lasso(ds, seed=3)
        cpus(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        forked = featsel.rank_lasso(ds, seed=3)
        assert len(forks) == 1
        assert forked.ranked_names == serial.ranked_names
        assert np.array(list(forked.scores.values())).tobytes() == np.array(list(serial.scores.values())).tobytes()
        assert forked.flagged == serial.flagged and serial.flagged
        assert_no_child_left()

    def test_one_cpu_never_forks(self, monkeypatch):
        cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert len(detector.train_many(experiment_like_jobs())) == 7
        ds = dataset(list(LABELS) * 15, 4, seed=9)
        assert len(featsel.rank_lasso(ds).ranked_names) == 4


SMALL_PLAN = ExperimentPlan(seed=5, scale=0.06, epochs=1, model="expert:dos")


def files_under(root) -> dict:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


class TestForkedScenarios:
    def test_build_cache_forked_is_serial_byte_for_byte(self, monkeypatch, tmp_path):
        cpus(monkeypatch, 1)
        serial = build_cache(SMALL_PLAN, tmp_path / "serial")
        cpus(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        forked = build_cache(SMALL_PLAN, tmp_path / "forked")
        assert len(forks) == 1
        assert_no_child_left()
        assert snapshot(forked.flows) == snapshot(serial.flows)
        assert forked.notes == serial.notes and len(serial.notes) == 2  # the clone and malsub rules
        assert forked.router_sessions_removed == serial.router_sessions_removed > 0
        assert forked.scenarios == serial.scenarios
        assert [s["name"] for s in serial.scenarios] == list(SMALL_PLAN.scenarios)
        for sub in ("traces", "flows"):
            assert files_under(tmp_path / "forked" / sub) == files_under(tmp_path / "serial" / sub)

    # The largest trace (clone) is dealt first, to this process; malsub to the child.
    @pytest.mark.parametrize("scenario, in_child", [("clone", False), ("malsub", True)])
    def test_a_failing_scenario_is_named_by_its_stage(self, monkeypatch, tmp_path, capsys, scenario, in_child):
        cpus(monkeypatch, 2)
        generate, meter, metering = simnet.generate, flowmeter.meter, {}

        def generate_noted(config):
            metering["scenario"] = config.scenario  # a worker meters the trace it generated last
            return generate(config)

        def failing_meter(trace, config):
            if metering["scenario"] == scenario:
                raise ValueError("meter broke")
            return meter(trace, config)

        monkeypatch.setattr(simnet, "generate", generate_noted)
        monkeypatch.setattr(flowmeter, "meter", failing_meter)
        with pytest.raises(evalcli._StageError, match=f"^stage scenarios: scenario {scenario}: meter broke$") as raised:
            build_cache(SMALL_PLAN)
        assert ("in forked worker" in str(raised.value.__cause__.__cause__)) == in_child
        assert_no_child_left()
        rc = main(["experiment", "--seed", "5", "--scale", "0.06", "--epochs", "1", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"ddsids: stage scenarios: scenario {scenario}: meter broke\n"
        assert_no_child_left()

    def test_write_split_forked_is_serial_byte_for_byte(self, monkeypatch, tmp_path):
        train, test = dataset(list(LABELS) * 5, 4, seed=3), dataset(list(LABELS) * 3, 4, seed=4)
        for sub in ("serial", "forked"):
            (tmp_path / sub).mkdir()
        cpus(monkeypatch, 1)
        write_split(train, test, tmp_path / "serial")
        cpus(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        write_split(train, test, tmp_path / "forked")
        assert len(forks) == 1
        assert_no_child_left()
        assert files_under(tmp_path / "forked") == files_under(tmp_path / "serial")
        assert set(files_under(tmp_path / "serial")) == {"train.csv", "test.csv"}


# Frees a 16 MB array, which glibc mmap'd: that raises its mmap threshold to
# 16 MB and its trim threshold to 32 MB.  The 24 MB of 1 MB arrays made next
# come from the heap and, freed, stay at its top, below the trim threshold.
# Prints the resident MB that trim_heap gives back.
TRIM_PROBE = """
import numpy as np
from ddsids import parallel

def rss_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) / 1024

big = np.ones(2 << 20)
del big
blocks = [np.ones(1 << 17) for _ in range(24)]
del blocks
before = rss_mb()
parallel.trim_heap()
print(before - rss_mb())
"""


class TestTrimHeap:
    @pytest.mark.skipif(sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "malloc_trim"),
                        reason="needs glibc's malloc_trim and /proc")
    def test_freed_heap_goes_back_to_the_os(self):
        src = str(Path(parallel.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", TRIM_PROBE], capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) > 12

    def test_every_stage_and_command_trims_even_when_it_fails(self, monkeypatch, tmp_path, capsys):
        trims = []
        monkeypatch.setattr(parallel, "trim_heap", lambda: trims.append(1))
        timing = {}
        with evalcli._stage("select", timing):
            pass
        with pytest.raises(evalcli._StageError, match="^stage train: broke$"):
            with evalcli._stage("train", timing):
                raise ValueError("broke")
        assert len(trims) == 2
        assert set(timing) == {"select_s", "train_s"}
        assert main(["meter", "--packets", str(tmp_path / "missing.packets.csv"), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("ddsids: error: ")
        assert len(trims) == 3
