"""One benchmark process: set up, run one workload's ops, report as JSON.

Started by ``run.py`` as a fresh single-threaded interpreter with the
job (workload, pool items, seed, seconds, trace flag) as JSON on stdin.
It imports ``imred`` from ``src/`` of the current directory, runs one
untimed warm-up op, then runs passes over the items until the ops
themselves have taken ``seconds``: the first pass in plan order, later
ones in seeded shuffled orders, each from emptied caches.  Between
blocks of ops it times the reference workload (``reference.py``), by
which ``run.py`` normalizes op times for the host's speed.  Each op's
output digest is taken after the op's clock stops; ``run.py`` compares
the digests with ``golden.json``.

Every call into ``imred`` goes through ``Calls.call``, which in a traced
run records a span (op id, span id, parent span, name, start, end).
Nothing inside ``imred`` is instrumented.  The ops are also used by
``record.py`` to record the golden digests.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402

# The refute oracle budget (candidate cap included) and the acceptance-10
# budgets of the consistency probe.
REFUTE_BUDGET = dict(max_worlds=3, max_points=3, var_bound=2, max_candidates=2000)
PROBE_IN = dict(max_worlds=2, max_points=2, var_bound=2, max_candidates=4000)
PROBE_OUT = dict(max_worlds=2, max_points=2, var_bound=2, max_candidates=1500)
# Live re-evaluation with eval_formula_plain only below this expanded size.
PLAIN_LIMIT = 5000
# Ops run in blocks of about this much op time, with the reference
# workload timed between blocks.
BLOCK_NS = 200_000_000

WARMUP = {
    "translate": {"id": "warmup", "text": "<>(p1 -> false) | [](p2 & p3) -> p1"},
    "check": {"id": "warmup", "variant": "plain", "text": "<>p1 -> []p1",
              "models": ["world u\nworld v\nle u v\npoint u a\npoint v a\n"
                         "point v b\ns v a b\nval v p1 b\n"]},
    "refute": {"id": "warmup", "text": "<>p1 -> []p1", "kind": "fs"},
    "probe": {"id": "warmup", "text": "<>p1 -> []p1"},
}


def digest(material) -> str:
    return hashlib.sha256(repr(material).encode()).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def dag_nodes(phi) -> int:
    """Distinct nodes of a formula DAG (identity-shared subterms count once)."""
    seen = {id(phi)}
    stack = [phi]
    while stack:
        node = stack.pop()
        for child in (node.left, node.right):
            if child is not None and id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


def import_imred():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "imred", "__init__.py")):
        raise SystemExit(f"no imred package under {src}")
    sys.path.insert(0, src)
    os.environ.pop("IMRED_TIME_CAP_MS", None)  # a time cap would make results vary
    import imred
    return imred


class Calls:
    """Routes the benchmark's calls into imred; records spans when traced."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[tuple] = []  # (op, span, parent, name, start_ns, end_ns)
        self.op = 0
        self.op_span = 0

    def call(self, name: str, fn, *args, **kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        start = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        end = time.perf_counter_ns()
        self.spans.append((self.op, len(self.spans), self.op_span, name, start, end))
        return out

    def derived(self, parent: int, parts: list[tuple[str, float]]) -> None:
        """Child spans known only by duration (a search's own elapsed_ms),
        laid back to back at the end of ``parent`` in call order."""
        end = self.spans[parent][5]
        start = end - sum(round(ms * 1e6) for _, ms in parts)
        for name, ms in parts:
            stop = start + round(ms * 1e6)
            self.spans.append((self.op, len(self.spans), parent, name, start, stop))
            start = stop


class Ops:
    """The four ops.  ``<workload>(item)`` runs one op and returns its
    outputs; ``<workload>_out`` turns them into digest material and per-op
    counters; ``<workload>_verify`` re-checks them independently and
    returns a message on failure."""

    def __init__(self, imred, calls: Calls):
        from imred import semantics
        self.m = imred
        self.TableContext = semantics.TableContext
        self.calls = calls
        self.refute_budget = imred.SearchBudget(**REFUTE_BUDGET)
        self.budget_in = imred.SearchBudget(**PROBE_IN)
        self.budget_out = imred.SearchBudget(**PROBE_OUT)
        self.table_cache: dict = {}
        self.prebuilt: dict = {}

    def prepare(self, workload: str, items: list[dict]) -> None:
        """Build the one-variable outputs that check ops read (their text
        runs to millions of symbols, so they are never passed as text)."""
        if workload != "check":
            return
        for item in items:
            if item["variant"] == "one_var" and item["text"] not in self.prebuilt:
                phi = self.m.parse_formula(item["text"])
                self.prebuilt[item["text"]] = self.m.reduce_to_one_var(phi).output

    def new_pass(self, workload: str) -> None:
        """Empty the caches that ops of a pass fill, so every pass over the
        item list does the same work however many passes a run makes:
        translate starts from empty intern tables and probe from an empty
        ``table_cache``."""
        if workload == "translate":
            self.m.clear_caches()
        elif workload == "probe":
            self.table_cache.clear()

    # -- translate: parse, embed, star, print the positive form ------------
    def translate(self, item):
        m, call = self.m, self.calls.call
        phi = call("syntax.parse_formula", m.parse_formula, item["text"])
        emb = call("reduction.positive_embed", m.positive_embed, phi)
        sub = call("reduction.star", m.star, emb.positive_form)
        text = call("syntax.print_formula", m.print_formula, emb.positive_form)
        return phi, emb, sub, text

    def translate_out(self, item, out, traced):
        m = self.m
        phi, emb, sub, text = out
        positive_length = m.length(emb.positive_form)
        output_length = m.length(sub.result)
        bound_ok = output_length < 2 * 5 ** (sub.stable_level + 1) * positive_length ** 2
        material = (sub.input_level, sub.stable_level, sub.level, output_length,
                    bound_ok, m.is_positive(sub.result),
                    sorted(m.varset(sub.result)), positive_length, text_digest(text))
        counters = {"symbols": m.length(phi), "output_length": output_length}
        if traced:
            counters["output_dag_nodes"] = dag_nodes(sub.result)
        return material, counters

    def translate_verify(self, item, out, material):
        _, _, _, _, bound_ok, positive, variables, _, _ = material
        if not (bound_ok and positive and variables == [1]):
            return "output is not a positive one-variable formula within the bound"
        return None

    # -- check: parse the formula once, then model after model -------------
    def check(self, item):
        m, call = self.m, self.calls.call
        if item["variant"] == "one_var":
            phi = self.prebuilt[item["text"]]
        else:
            phi = call("syntax.parse_formula", m.parse_formula, item["text"])
        verdicts = []
        for text in item["models"]:
            model = call("syntax.parse_model", m.parse_model, text)
            ctx = call("semantics.TableContext", self.TableContext.for_model, model)
            tables = call("semantics.truth_table", m.truth_table, model, phi, ctx)
            verdicts.append((model, tables[phi] & ctx.space, len(tables), len(ctx.pairs)))
        return phi, verdicts

    def check_out(self, item, out, traced):
        phi, verdicts = out
        material = [mask for _, mask, _, _ in verdicts]
        counters = {"node_pairs": sum(n * p for _, _, n, p in verdicts)}
        if item["variant"] != "one_var":
            counters["symbols"] = self.m.length(phi)
        return material, counters

    def check_verify(self, item, out, material):
        phi, verdicts = out
        if self.m.tree_size(phi) > PLAIN_LIMIT:
            return None
        for model, mask, _, _ in verdicts:
            for w, x in model.pairs():
                plain = self.m.eval_formula_plain(model, w, x, phi)
                if plain != bool((mask >> (w * model.n_points + x)) & 1):
                    return f"verdict at ({w}, {x}) disagrees with eval_formula_plain"
        return None

    # -- refute: bounded countermodel search, certificate when refuted -----
    def refute(self, item):
        m, call = self.m, self.calls.call
        phi = call("syntax.parse_formula", m.parse_formula, item["text"])
        res = call("search.find_countermodel", m.find_countermodel, phi,
                   self.refute_budget, item["kind"])
        cert = ""
        if res.refuted:
            cert = call("syntax.print_certificate", m.print_certificate,
                        res.countermodel, res.world, res.point)
        return phi, res, cert

    def refute_out(self, item, out, traced):
        phi, res, cert = out
        st = res.stats
        material = (text_digest(cert), st.models_tested, st.stop)
        counters = {"symbols": self.m.length(phi), "candidates": st.models_tested,
                    "frames": st.frames_tested, "capped": int(st.stop == "candidate-cap"),
                    "refuted": int(res.refuted), "search_ms": st.elapsed_ms}
        return material, counters

    def refute_verify(self, item, out, material):
        phi, res, cert = out
        if not res.refuted:
            return None
        model, w, x = self.m.parse_certificate(cert)
        if model.kind != item["kind"] or self.m.eval_formula_plain(model, w, x, phi):
            return "certificate does not refute the formula"
        return None

    # -- probe: translation consistency against the bounded oracle ---------
    def probe(self, item):
        m, calls = self.m, self.calls
        phi = calls.call("syntax.parse_formula", m.parse_formula, item["text"])
        rep = calls.call("search.check_translation_consistency",
                         m.check_translation_consistency, phi, self.budget_in,
                         self.budget_out, "fs", table_cache=self.table_cache)
        if calls.traced:
            calls.derived(len(calls.spans) - 1, [
                ("search.probe.input", rep.input_result.stats.elapsed_ms),
                ("search.probe.positive", rep.positive_result.stats.elapsed_ms),
                ("search.probe.one_var", rep.one_var_result.stats.elapsed_ms)])
        return phi, rep

    def probe_out(self, item, out, traced):
        phi, rep = out
        results = (rep.input_result, rep.positive_result, rep.one_var_result)
        outcomes = (rep.positive_outcome, rep.one_var_outcome)
        material = (rep.input_result.refuted, outcomes,
                    outcomes.count("soft-miss"),
                    [(r.refuted, r.stats.models_tested, r.stats.stop) for r in results])
        counters = {"symbols": self.m.length(phi),
                    "soft_misses": outcomes.count("soft-miss"),
                    "contradictions": outcomes.count("contradiction"),
                    "search_ms": sum(r.stats.elapsed_ms for r in results)}
        for stage, r in zip(("input", "positive", "one_var"), results):
            counters[f"{stage}_candidates"] = r.stats.models_tested
        return material, counters

    def probe_verify(self, item, out, material):
        phi, rep = out
        if not rep.input_result.refuted:
            return "probe input is not refuted by the input budget"
        if rep.contradiction:
            return "probe reports a contradiction"
        return None


def run(job: dict) -> dict:
    workload, traced = job["workload"], job["trace"]
    imred = import_imred()
    calls = Calls(traced=False)
    ops = Ops(imred, calls)
    op, out_of, verify = (getattr(ops, workload), getattr(ops, workload + "_out"),
                          getattr(ops, workload + "_verify"))
    op(WARMUP[workload])
    setup_s = time.perf_counter() - _STARTED
    # Set-up time on a host that runs the reference in NOMINAL_NS.
    setup_s *= reference.NOMINAL_NS / reference.reference_ns()
    if job.get("setup_only"):
        return {"setup_s": setup_s}

    items = job["items"]
    ops.prepare(workload, items)
    calls.traced = traced
    budget_ns = job["seconds"] * 1e9
    busy = 0
    failures = []  # [op index, message]
    refs = []  # [index of the next op, reference ns], between blocks
    order = list(range(len(items)))
    block = BLOCK_NS
    k = 0
    # Records go to a file as they are made, so the harness's own memory
    # does not grow with the number of ops and stays out of peak_rss_mb.
    with open(job["records_path"], "w", encoding="utf-8") as records:
        while busy < budget_ns:
            if block >= BLOCK_NS:
                refs.append([k, reference.reference_ns()])
                block = 0
            if k % len(items) == 0:
                ops.new_pass(workload)
                gc.collect()  # every pass starts from the same collector state
                if k:
                    # Later passes take the items in other seeded orders, so
                    # the slow spots of a pass (collections of a growing
                    # heap, a cold table_cache) fall on other ops each time.
                    random.Random(f"{job['seed']}:{k // len(items)}").shuffle(order)
            item = items[order[k % len(items)]]
            calls.op = k
            if traced:
                calls.op_span = len(calls.spans)
                calls.spans.append(None)  # the op's span, filled in when it ends
            start = time.perf_counter_ns()
            try:
                out = op(item)
            except Exception as err:  # an op that raises is a failed op
                out, problem = None, f"raised {err!r}"
            end = time.perf_counter_ns()
            if traced:
                calls.spans[calls.op_span] = (k, calls.op_span, None, "harness.op", start, end)
            busy += end - start
            block += end - start
            if out is None:
                failures.append([k, f"{item['id']}: {problem}"])
                records.write(json.dumps([item["id"], end - start, "raised", {}]) + "\n")
                k += 1
                continue
            material, counters = out_of(item, out, traced)
            if k < len(items):  # re-check each item in the first pass
                try:
                    problem = verify(item, out, material)
                except Exception as err:  # a crash in re-checking is a failed op
                    problem = f"re-check raised {err!r}"
                if problem:
                    failures.append([k, f"{item['id']}: {problem}"])
            records.write(json.dumps([item["id"], end - start, digest(material), counters]) + "\n")
            del out
            k += 1
    refs.append([k, reference.reference_ns()])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"setup_s": setup_s, "failures": failures, "peak_rss_mb": peak_rss_mb,
              "references": refs}
    if traced:
        result["spans"] = calls.spans
        result["table_cache_entries"] = sum(len(v) for v in ops.table_cache.values())
        ops.prebuilt.clear()
        del ops, calls, op, out_of, verify
        gc.collect()
        result["live_nodes"] = sum(1 for o in gc.get_objects()
                                   if type(o) is imred.Formula)
    return result


def main() -> None:
    job = json.load(sys.stdin)
    json.dump(run(job), sys.stdout)


if __name__ == "__main__":
    main()
