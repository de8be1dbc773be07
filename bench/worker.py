"""Child process of the benchmark: one workload process per invocation.

  worker.py import MODULE...            import the modules (bytecode warm-up)
  worker.py setup WORKLOAD SEED         set the workload up, print the clock, exit
  worker.py run WORKLOAD SEED SECONDS   measure an in-process workload
  worker.py trace WORKLOAD SEED SECONDS traced replay of every workload

``run`` prints its ``Recorder.state()`` and ``trace`` its summary, each as
one JSON object on stdout.  Run it from the root of the checkout with
``src`` on PYTHONPATH, as ``run.py`` does.
"""
import sys
import time


def _setup(name: str, seed: int) -> None:
    import workloads
    workloads.setup(name, seed)
    print(repr(time.perf_counter()))


def _run(name: str, seed: int, seconds: float) -> dict:
    import workloads
    workload, api = workloads.setup(name, seed)
    workload.sweep(api, workloads.Recorder())  # warm-up, not counted
    rec = workloads.Recorder()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        workload.sweep(api, rec)
    return rec.state()


def _trace(name: str, seed: int, seconds: float) -> dict:
    import layers
    return layers.traced_run(name, seed, seconds)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "import":
        for module in sys.argv[2:]:
            __import__(module)
    elif mode == "setup":
        _setup(sys.argv[2], int(sys.argv[3]))
    else:
        import json
        fn = {"run": _run, "trace": _trace}[mode]
        print(json.dumps(fn(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]))))
