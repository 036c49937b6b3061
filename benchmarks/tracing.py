"""Span tracer installed from outside the program.

It wraps the public names at the module boundaries of ``vanetcov`` (the
names bound in the calling module, so internal calls are seen too), keeps
every span in memory as ``[name, start_ns, end_ns, parent, request_id]``,
and turns the spans into per-layer numbers once the traced pass is over.
Nothing inside the package changes; a name a later version removes is
simply not wrapped and its counters read 0.
"""
from __future__ import annotations

import time

_now = time.perf_counter_ns

# Span name -> layer that owns its self time.  Integrand evaluations are
# analytic code called back from the quadrature engine.
LAYERS = ("cli", "simulator", "geometry", "analytic", "quadrature")
INTEGRAND = "analytic.integrand"
ANALYTIC_API = ("analytic.dl_coverage", "analytic.sl_coverage",
                "analytic.effective_rate_with_error")
CELL_ESTIMATORS = ("simulator.estimate_voronoi_area_moment",
                   "simulator.estimate_zero_cell_areas",
                   "simulator.estimate_zero_cell_load")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0
        self.counts: dict[str, float] = {}
        self.request_samples: dict[int, int] = {}   # SIR samples per request
        self.coverage_levels: list[int] = []  # 1 + resum calls, refined calls
        self._cov_stack: list[list] = []      # [resum calls, refined?]
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, _now(), 0, self.stack[-1] if self.stack else -1,
                           self.request])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = _now()
        self.stack.pop()

    def _add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    def _integrand(self, f):
        def counted(x, *rest):
            self._add("quadrature.integrand_calls", 1)
            self._add("quadrature.nodes", getattr(x, "size", 1))
            idx = self._open(INTEGRAND)
            try:
                return f(x, *rest)
            finally:
                self._close(idx)
        return counted

    # -- installation ----------------------------------------------------
    def _patch(self, module, attr, wrapper_factory):
        fn = getattr(module, attr, None)
        if fn is None:
            return
        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper_factory(fn))

    def install(self, cli, simulator, analytic):
        self._patch(cli, "run", lambda fn: self.span(
            "cli.run", fn, lambda a, k, out: self._add("cli.rows", len(out))))

        def sir_done(args, kwargs, batch):
            self._add("simulator.sir_samples", len(batch))
            self.request_samples[self.request] = \
                self.request_samples.get(self.request, 0) + len(batch)
            self._add("simulator.degenerate_resamples",
                      getattr(batch, "n_degenerate", 0))
        self._patch(simulator, "draw_sir_samples",
                    lambda fn: self.span("simulator.draw_sir_samples", fn, sir_done))
        for attr in sorted(dir(simulator)):
            if attr.startswith("estimate_") and callable(getattr(simulator, attr)):
                self._patch(simulator, attr, lambda fn, a=attr: self.span(
                    "simulator." + a, fn, self._replications(a)))

        def points_done(args, kwargs, out):
            self._add("geometry.calls", 1)
            self._add("geometry.points", len(out))
        for attr in ("sample_lines", "sample_vehicles", "sample_planar_ppp"):
            self._patch(simulator, attr, lambda fn, a=attr: self.span(
                "geometry." + a, fn, points_done))

        for attr in ("dl_coverage", "sl_coverage"):
            self._patch(analytic, attr, lambda fn, a=attr: self._coverage(a, fn))
        self._patch(analytic, "effective_rate_with_error", lambda fn: self.span(
            "analytic.effective_rate_with_error", fn))

        def quad(attr):
            def factory(fn):
                wrapped = self.span("quadrature." + attr, fn, self._quad_done(attr))

                def call(f, *rest, **kwargs):
                    return wrapped(self._integrand(f), *rest, **kwargs)
                return call
            return factory
        for attr in ("integrate", "integrate_with_panels", "resum_panels"):
            self._patch(analytic, attr, quad(attr))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _replications(self, attr):
        def done(args, kwargs, out):
            first = out[0] if isinstance(out, tuple) else out
            self._add(f"simulator.{attr}.reps", getattr(first, "n_samples", 0))
        return done

    def _coverage(self, attr, fn):
        wrapped = self.span("analytic." + attr, fn)

        def call(*args, **kwargs):
            self._cov_stack.append([0, False])
            try:
                return wrapped(*args, **kwargs)
            finally:
                resums, refined = self._cov_stack.pop()
                if refined:
                    self.coverage_levels.append(1 + resums)
        return call

    def _quad_done(self, attr):
        def done(args, kwargs, out):
            self._add("quadrature.calls", 1)
            if attr == "integrate_with_panels":
                self._add("quadrature.panels", len(out[2]))
                if self._cov_stack:
                    self._cov_stack[-1][1] = True
            elif attr == "resum_panels" and self._cov_stack:
                self._cov_stack[-1][0] += 1
        return done

    # -- analysis --------------------------------------------------------
    def metrics(self, wall_s):
        """Per-layer numbers of the traced pass (seconds, counts, ratios),
        and the kernel and cold-rate figures of each request by its id."""
        spans = self.spans
        n = len(spans)
        dur = [(s[2] - s[1]) * 1e-9 for s in spans]
        self_t = dur[:]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self_t[s[3]] -= dur[i]

        layer_self = dict.fromkeys(LAYERS, 0.0)
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_by_name: dict[str, float] = {}
        own: dict[str, float] = {}  # self time, integrands folded into their API call
        api_of = [None] * n
        rate_nested_dl = [0] * n
        for i, (name, _, _, parent, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur[i]
            self_by_name[name] = self_by_name.get(name, 0.0) + self_t[i]
            if name in ANALYTIC_API:
                api_of[i] = i
            elif parent >= 0:
                api_of[i] = api_of[parent]
            layer = "analytic" if name == INTEGRAND else name.split(".", 1)[0]
            layer_self[layer] += self_t[i]
            if name in ANALYTIC_API or name == INTEGRAND:
                owner = api_of[i]
                if owner is not None:
                    key = spans[owner][0]
                    own[key] = own.get(key, 0.0) + self_t[i]
            if name == "analytic.dl_coverage":
                # walk up to the enclosing effective-rate call, if any
                p = parent
                while p >= 0 and spans[p][0] != "analytic.effective_rate_with_error":
                    p = spans[p][3]
                if p >= 0:
                    rate_nested_dl[p] += 1

        rate_idx = [i for i, s in enumerate(spans)
                    if s[0] == "analytic.effective_rate_with_error"]
        cold = [i for i in rate_idx if rate_nested_dl[i] > 0]
        c = self.counts

        def per(total, count, scale=1.0):
            return total / count * scale if count else 0.0

        draw_by_request: dict[int, float] = {}
        for i, s in enumerate(spans):
            if s[0] == "simulator.draw_sir_samples":
                draw_by_request[s[4]] = draw_by_request.get(s[4], 0.0) + self_t[i]
        by_request = {req: {"sir_us_per_sample": per(t, self.request_samples[req], 1e6)}
                      for req, t in draw_by_request.items()}
        for i in cold:
            by_request.setdefault(spans[i][4], {}).update(
                rate_cold_s=dur[i], dl_calls_per_rate=rate_nested_dl[i])

        samples = c.get("simulator.sir_samples", 0)
        draw_self = self_by_name.get("simulator.draw_sir_samples", 0.0)
        cell_s = sum(incl.get(k, 0.0) for k in CELL_ESTIMATORS)
        load_reps = c.get("simulator.estimate_zero_cell_load.reps", 0)
        out = {
            "cli.run.self_s": layer_self["cli"],
            "cli.rows": c.get("cli.rows", 0),
            "simulator.self_s": layer_self["simulator"],
            "simulator.draw_sir_samples.self_s": draw_self,
            "simulator.sir_samples": samples,
            "simulator.sir_us_per_sample": per(draw_self, samples, 1e6),
            "simulator.degenerate_resamples": c.get("simulator.degenerate_resamples", 0),
            "simulator.estimate_association.s": incl.get("simulator.estimate_association", 0.0),
            "simulator.voronoi_ms_per_rep": per(
                incl.get("simulator.estimate_voronoi_area_moment", 0.0),
                c.get("simulator.estimate_voronoi_area_moment.reps", 0), 1e3),
            "simulator.zero_cell_area_ms_per_rep": per(
                incl.get("simulator.estimate_zero_cell_areas", 0.0),
                c.get("simulator.estimate_zero_cell_areas.reps", 0), 1e3),
            "simulator.zero_cell_load_ms_per_rep": per(
                incl.get("simulator.estimate_zero_cell_load", 0.0), load_reps, 1e3),
            "geometry.calls": c.get("geometry.calls", 0),
            "geometry.points": c.get("geometry.points", 0),
            "geometry.self_s": layer_self["geometry"],
            "analytic.self_s": layer_self["analytic"],
            "quadrature.self_s": layer_self["quadrature"],
            "quadrature.calls": c.get("quadrature.calls", 0),
            "quadrature.panels": c.get("quadrature.panels", 0),
            "quadrature.integrand_calls": c.get("quadrature.integrand_calls", 0),
            "quadrature.nodes": c.get("quadrature.nodes", 0),
            "analytic.rate.calls": len(rate_idx),
            "analytic.rate.self_s": own.get("analytic.effective_rate_with_error", 0.0),
            "analytic.rate_cache_hits": len(rate_idx) - len(cold),
            "analytic.rate_cache_hit_ratio": per(len(rate_idx) - len(cold), len(rate_idx)),
            "analytic.rate_cold_s": per(sum(dur[i] for i in cold), len(cold)),
            "analytic.dl_calls_per_rate": per(sum(rate_nested_dl[i] for i in cold), len(cold)),
            "analytic.inner_level_mean": per(sum(self.coverage_levels),
                                             len(self.coverage_levels)),
            "share.sir_kernel": per(incl.get("simulator.draw_sir_samples", 0.0), wall_s),
            "share.analytic_quadrature": per(layer_self["analytic"]
                                             + layer_self["quadrature"], wall_s),
            "share.cell_geometry": per(cell_s, wall_s),
            "trace.spans": n,
        }
        for attr in ("dl_coverage", "sl_coverage"):
            name = "analytic." + attr
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".self_s"] = own.get(name, 0.0)
            out[name + ".ms_per_call"] = per(incl.get(name, 0.0), calls.get(name, 0), 1e3)
        return out, by_request

    def dump(self, path):
        """Write the spans as CSV: id,parent,request,name,start_ns,end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,request,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{i},{parent},{req},{name},{start},{end}\n")
