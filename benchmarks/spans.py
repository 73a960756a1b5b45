"""Spans around the public functions of eqnf, recorded from outside.

The eqnf modules import each other's functions by name, so one function is
bound in several module namespaces (``eqnf.polymap.log_map`` is also
``eqnf.normalform.log_map`` and ``eqnf.log_map``).  ``Tracer.install``
replaces the function in every eqnf namespace that binds it, and
``Tracer.restore`` puts the original objects back.  Nothing under ``src/``
changes.

A span is (name, start, end, parent span index, job id).  Spans stay in
memory until the run ends.  The self time of a span is its duration minus
the durations of its direct children.  Calls made while the tracer is not
``active`` (a job's output check, say) record nothing.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# module -> public callables to wrap; "Class.method" wraps a method.
TARGETS = {
    "linalg": ("real_log", "nullspace", "su_decomposition"),
    "groups": ("extended_group", "tilde_character", "project_map",
               "invariant_inner_product"),
    "polymap": ("log_map", "exp_vf", "ck_operator", "ck_solve", "compose",
                "inverse_truncated", "adk_operator", "adk_field",
                "conjugate_linear", "TruncatedMap.evaluate"),
    "normalform": ("semisimple_nf", "nilpotent_nf",
                   "admissible_exponent_basis", "hk_projection"),
    "reduction": ("build_lift", "find_periodic", "nf_reduction_consistency",
                  "xi", "lifted_apply"),
    "cli": ("main", "load_problem"),
}

# Entry points also report their total (inclusive) time.
ENTRY_POINTS = ("normalform.semisimple_nf", "normalform.nilpotent_nf",
                "reduction.build_lift", "reduction.find_periodic",
                "reduction.nf_reduction_consistency", "cli.main")

CLI_SUBCOMMANDS = ("decompose", "normal-form", "reduce", "periodic", "verify")


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a wrapped callable: methods drop their class."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def layer_names() -> list[str]:
    """Every span name a traced run can record for a wrapped callable."""
    names = []
    for module, attrs in TARGETS.items():
        for attr in attrs:
            name = span_name(module, attr)
            if name == "cli.main":
                names.extend(f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS)
            else:
                names.append(name)
    return names


def is_entry_point(name: str) -> bool:
    return any(name == e or name.startswith(e + ".") for e in ENTRY_POINTS)


def _cli_main_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    sub = argv[0] if argv else "none"
    return f"cli.main.{sub}"


class Tracer:
    """Records spans of wrapped calls; ``clock`` is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.job = -1
        self.active = False
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)
        self._snapshot: list = []  # (namespace, copy of its dict) before install
        # id -> wrapper made by install; holding the wrappers keeps their ids
        # from being reused until restore has looked for them
        self._wrappers: dict = {}

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closed {idx}, top {popped}")

    @contextlib.contextmanager
    def job_span(self, job: int, name: str):
        """Record spans inside the block, under one root span of ``job``."""
        self.job = job
        self.active = True
        root = self.begin(name)
        try:
            yield
        finally:
            self.end(root)
            self.active = False

    def wrap(self, name: str, fn, namer=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(namer(args, kwargs) if namer else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return wrapper

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _namespaces() -> list:
        """Every loaded eqnf module, and every class one of them defines."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "eqnf" or key.startswith("eqnf."))]
        classes = [v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("eqnf")]
        return modules + list({id(c): c for c in classes}.values())

    def install(self) -> None:
        """Wrap every target in every loaded eqnf namespace binding it, after
        taking a snapshot of those namespaces for ``restore`` to compare."""
        self._snapshot = [(ns, dict(vars(ns))) for ns in self._namespaces()]
        modules = [ns for ns, _ in self._snapshot if not isinstance(ns, type)]
        for module, attrs in TARGETS.items():
            home = sys.modules[f"eqnf.{module}"]
            for attr in attrs:
                name = span_name(module, attr)
                namer = _cli_main_name if name == "cli.main" else None
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    owners = [cls]
                else:
                    original = getattr(home, attr)
                    owners = modules
                wrapper = self.wrap(name, original, namer)
                self._wrappers[id(wrapper)] = wrapper
                # aliases such as __call__ = evaluate share the object
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            self._patched.append((owner, key, original))
                            setattr(owner, key, wrapper)

    def restore(self) -> list[str]:
        """Put every original object back, then compare every eqnf namespace
        with the snapshot taken before ``install``.  Returns the problems:
        an attribute that is not the object it was before, or a wrapper
        still bound anywhere in eqnf."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        problems = []
        if not self._patched:
            problems.append("nothing was wrapped")
        for ns, before in self._snapshot:
            now = vars(ns)
            for key, value in before.items():
                if key not in now:
                    problems.append(f"{ns.__name__}.{key} is gone")
                elif now[key] is not value:
                    problems.append(f"{ns.__name__}.{key} is not the original object")
        for ns in self._namespaces():
            for key, value in vars(ns).items():
                if id(value) in self._wrappers:
                    problems.append(f"{ns.__name__}.{key} is still a wrapper")
        self._patched.clear()
        self._snapshot = []
        self._wrappers.clear()
        return problems

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def summary(self) -> dict:
        """name -> {"calls", "self_s", "total_s"}; total counts outermost
        spans of a name only, so recursion is not double counted."""
        selfs = self.self_times()
        agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            rec = agg[name]
            rec["calls"] += 1
            rec["self_s"] += selfs[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                rec["total_s"] += end - start
        return dict(agg)

    def check_jobs(self, job_seconds: dict, rel_tol: float = 0.01,
                   slack_s: float = 1e-9) -> list[str]:
        """Problems with the spans of each job.

        Every span closed; one root span per job; each child inside its
        parent and in its parent's job; no self time below zero (children
        that overlap each other); and the self times of a job summing to
        ``job_seconds[job]``, the job time measured apart from the spans,
        within ``rel_tol``.  The self times of a job add up to its root
        span's duration by construction, so the last test is a test of the
        root span against the independent clock reading.
        """
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        selfs = self.self_times()
        roots = {}
        sums = defaultdict(float)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            if end is None:
                problems.append(f"span {i} ({name}) never closed")
                continue
            if parent < 0:
                if job in roots:
                    problems.append(f"job {job} has more than one root span")
                roots[job] = i
            else:
                ps, pe = self.spans[parent][1], self.spans[parent][2]
                if self.spans[parent][4] != job:
                    problems.append(f"span {i} ({name}) crosses jobs")
                if start < ps or (pe is not None and end > pe):
                    problems.append(f"span {i} ({name}) leaves its parent")
            if selfs[i] < -slack_s:
                problems.append(f"span {i} ({name}) has self time {selfs[i]:.3e} s; "
                                "its children overlap")
            sums[job] += selfs[i]
        for job in sorted(set(sums) | set(job_seconds)):
            if job not in roots:
                problems.append(f"job {job} has no root span")
            elif job not in job_seconds:
                problems.append(f"job {job} has no measured time")
            elif abs(sums[job] - job_seconds[job]) > rel_tol * job_seconds[job]:
                problems.append(f"job {job}: self times sum to {sums[job]:.6f} s, "
                                f"the job measured {job_seconds[job]:.6f} s")
        return problems

    def dump(self) -> dict:
        """Spans in a compact form for writing out: a name table plus rows
        (name index, start, end, parent, job) with times in microseconds
        from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1), p, j]
                for n, a, b, p, j in self.spans]
        return {"names": names, "columns": ["name", "start_us", "end_us",
                                            "parent", "job"], "spans": rows}
