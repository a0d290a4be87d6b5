"""The traced run: the route/eval round trip in-process, with a span around
each call into menu, datagen, prompts, provider, router and evaluation.

Top-level calls are wrapped where this module makes them. Calls made inside
``route_all`` are wrapped by substituting attributes of the ``ivroute.router``
module and of the provider object for the duration of the call, so no
program file changes. The same round trip without a tracer is the untraced
reference that gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

from harness import BenchError, tail_value
from tracing import Tracer, self_cpu, self_time
from workloads import CONDITION_VALUES, INVALID, MAX_IN_FLIGHT, Workload


# (router module attribute, span name): the calls route_all and route_one
# make, named after the layer whose work they are.
ROUTER_CALLS = (
    ("validate_menu", "menu.validate"),
    ("validate_dataset", "datagen.validate_dataset"),
    ("render_context", "menu.render_context"),
    ("route_one", "router.route_one"),
    ("build_prompt", "prompts.build_prompt"),
    ("parse_dtmf_response", "router.parse"),
    ("build_manifest", "router.build_manifest"),
)


class Program:
    """The ivroute modules, imported from the checkout's sources."""

    def __init__(self, root: Path):
        src = str(root / "src")
        sys.path.insert(0, src)
        import ivroute
        from ivroute import datagen, evaluation, menu, prompts, provider, router

        if not Path(ivroute.__file__).resolve().is_relative_to(Path(src).resolve()):
            raise BenchError(f"imported ivroute from {ivroute.__file__}, not from {src}")
        self.datagen, self.evaluation, self.menu = datagen, evaluation, menu
        self.prompts, self.provider, self.router = prompts, provider, router

    def make_provider(self, endpoint: str):
        """The provider ``ivroute route --provider http`` builds."""
        p = self.provider
        config = p.ProviderConfig(endpoint_url=endpoint, model_name="mock", max_in_flight=MAX_IN_FLIGHT)
        return p.HttpProvider(config)


@contextlib.contextmanager
def instrumented(tracer: Tracer, program: Program, provider):
    """Spans inside route_all: the router's callees, the provider's
    ``complete`` and each of its HTTP attempts."""
    with contextlib.ExitStack() as stack:
        for attribute, name in ROUTER_CALLS:
            request_of = (lambda intent, *_: intent.id) if attribute == "route_one" else None
            stack.enter_context(tracer.patch(program.router, attribute, name, request_of))
        stack.enter_context(tracer.patch(provider, "complete", "provider.complete"))
        stack.enter_context(tracer.patch(provider, "_transport", "provider.attempt"))
        yield


def round_trip(
    program: Program,
    workload: Workload,
    inputs: dict,
    menu_path: Path,
    endpoint: str,
    out_dir: Path,
    tracer: Tracer | None,
) -> dict:
    """Route and evaluate once, in-process, as ``route`` then ``eval`` do.

    Returns the wall time, the provider, and what the output checks read.
    """
    router, evaluation = program.router, program.evaluation

    def call(name, fn, *args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs) if tracer else fn(*args, **kwargs)

    def route_all(*args, **kwargs):
        with tracer.adopting():
            return router.route_all(*args, **kwargs)

    start = time.perf_counter()
    tree = call("menu.load", program.menu.load_menu, menu_path)
    dataset = call("datagen.load_dataset", program.datagen.load_dataset, inputs["dataset"], menu_name=tree.name)
    provider = program.make_provider(endpoint)
    condition = program.prompts.RoutingCondition(CONDITION_VALUES[workload.condition])
    route_args = (dataset, condition, tree, provider)
    route_kwargs = {"record_filter": workload.record_filter}
    if tracer:
        with instrumented(tracer, program, provider):
            run = tracer.call("router.route_all", route_all, *route_args, **route_kwargs)
    else:
        run = router.route_all(*route_args, **route_kwargs)
    results_path = out_dir / "results.jsonl"
    call("router.save_results", router.save_results, run.results, results_path)
    results = call("evaluation.load_results", router.load_results, results_path)
    manifest = run.manifest
    classes = [tp.path.canonical() for tp in program.menu.flatten(tree)]
    report = call(
        "evaluation.build_report", evaluation.build_report, results, classes,
        manifest["condition"], manifest["dataset_filter"], manifest["model_name"],
    )
    report_dir = out_dir / f"eval-{manifest['run_id']}"
    call("evaluation.emit_report", evaluation.emit_report, report, report_dir)
    wall = time.perf_counter() - start
    rows = [json.loads(line) for line in results_path.read_text(encoding="utf-8").splitlines() if line]
    report_json = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
    return {"wall": wall, "provider": provider, "rows": rows, "manifest": manifest, "report": report_json}


def layer_metrics(tracer: Tracer, trip: dict, inputs: dict, stub_stats: dict) -> dict:
    """Per-layer figures of one traced round trip (see README.md)."""
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def total_ms(name: str) -> float:
        return sum(s.duration for s in by_name[name]) * 1e3

    def p50(name: str, scale: float) -> float:
        return statistics.median(s.duration for s in by_name[name]) * scale

    completed = [s.duration * 1e3 for s in by_name["provider.complete"] if s.error is None]
    attempts = len(by_name["provider.attempt"])
    status = stub_stats["status"]
    (route_all,) = by_name["router.route_all"]
    return {
        "router.route_all_self_s": self_time(route_all, tracer.spans),
        "router.route_all_cpu_s": self_cpu(route_all, tracer.spans),
        "router.route_one_p50_us": p50("router.route_one", 1e6),
        "router.parse_us": p50("router.parse", 1e6),
        "router.invalid": sum(1 for r in trip["rows"] if r["predicted"] == INVALID),
        "router.failed_share": len(trip["manifest"]["failures"]) / len(inputs["selected"]),
        "router.save_results_ms": total_ms("router.save_results"),
        "prompts.build_prompt_us": p50("prompts.build_prompt", 1e6),
        "prompts.calls": len(by_name["prompts.build_prompt"]),
        "provider.complete_p50_ms": statistics.median(completed),
        "provider.complete_tail_ms": tail_value(completed),
        "provider.peak_in_flight": trip["provider"].peak_in_flight,
        "provider.attempts": attempts,
        "provider.useful_ratio": len(completed) / attempts,
        "stub.service_p50_ms": statistics.median(stub_stats["service_ms"]),
        "stub.status_429": status.get("429", 0),
        "stub.status_503": status.get("503", 0),
        "menu.load_ms": total_ms("menu.load"),
        "menu.render_context_ms": total_ms("menu.render_context"),
        "datagen.load_dataset_ms": total_ms("datagen.load_dataset"),
        "datagen.validate_dataset_ms": total_ms("datagen.validate_dataset"),
        "evaluation.load_results_ms": total_ms("evaluation.load_results"),
        "evaluation.build_report_ms": total_ms("evaluation.build_report"),
        "evaluation.emit_report_ms": total_ms("evaluation.emit_report"),
        "trace.spans": len(tracer.spans),
    }
