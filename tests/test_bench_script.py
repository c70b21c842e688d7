import importlib.util
from pathlib import Path

BENCH_KERNELS = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def test_kernel_benchmark_imports():
    # Import only, running no layer: a renamed or removed permchannel export fails here.
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH_KERNELS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    layers = (module.kernel_layer, module.group_layer, module.construction_layer, module.cli_layer)
    assert all(callable(f) for f in (*layers, module.main))
