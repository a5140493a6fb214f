"""Request streams: a pure function of (workload, seed, corpus).

Every choice a stream makes follows one popularity law: a Zipf law
whose exponent is fitted to the corpus's own popcon installation
counts (:func:`popcon_exponent`).  The law ranks each choice's options
in an order the repository fixes, most popular first:

* endpoints in the server's own ``ENDPOINTS`` display order;
* dimensions in ``DIMENSION_ORDER``;
* releases newest first (the head is asked without ``?release=``);
* API sets from the paper's Table 6 systems, in table order, as
  ``repro.compat.systems`` models them: a system's supported set for
  completeness and evaluation queries, and the measured APIs it lacks
  for advisor plans and importance trends;
* trend and diff windows shortest first, and a parameter's default
  before its alternative.

A query's weight is the product of its choices' weights.  A stream is
made of blocks: each block apportions its requests to the queries by
weight (largest remainder) and shuffles them with the seed.  So every
seed asks the same queries equally often, in another order, and a run's
work does not depend on the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

from repro.compat.systems import (FREEBSD_EMU, L4LINUX, UML,
                                  graphene_model, graphene_plus_sched)
from repro.dataset.dimensions import DIMENSION_ORDER
from repro.serve.endpoints import ENDPOINTS as SERVED


@dataclass(frozen=True)
class Req:
    """One request of a stream; ``endpoint`` is ``"reload"`` for writes."""

    endpoint: str
    method: str
    path: str
    query: Tuple[Tuple[str, str], ...] = ()
    body: Optional[bytes] = None

    @property
    def target(self) -> str:
        return self.path + ("?" + urlencode(self.query)
                            if self.query else "")

    @property
    def key(self) -> Tuple[str, str, Optional[bytes]]:
        return (self.method, self.target, self.body)

    @property
    def release(self) -> Optional[str]:
        return dict(self.query).get("release")


_ROUTES = {endpoint.name: (endpoint.method, endpoint.path)
           for endpoint in SERVED}

#: The query endpoints a stream can name (reloads and scrapes aside).
ENDPOINTS = frozenset(_ROUTES)


def query(endpoint: str, params: Optional[Dict[str, object]] = None,
          body: Optional[Dict[str, object]] = None) -> Req:
    method, path = _ROUTES[endpoint]
    pairs = tuple(sorted((k, str(v)) for k, v in (params or {}).items()))
    raw = (json.dumps(body, sort_keys=True).encode("utf-8")
           if body is not None else None)
    return Req(endpoint, method, path, pairs, raw)


def reload(path: str) -> Req:
    return Req("reload", "POST", "/admin/reload", (),
               json.dumps({"path": path}).encode("utf-8"))


def popcon_exponent(popcon) -> float:
    """Zipf exponent of a popcon survey.

    The least-squares slope of log installations against log rank,
    over the packages installed at least once.
    """
    counts = sorted((c for c in (popcon.installations(name)
                                 for name in popcon.packages()) if c > 0),
                    reverse=True)
    if len(counts) < 2:
        raise ValueError("popcon needs two installed packages")
    xs = [math.log(rank) for rank in range(1, len(counts) + 1)]
    ys = [math.log(count) for count in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    return -slope


def _law(n: int, s: float) -> List[float]:
    """Zipf weights of ranks 1..n, summing to 1."""
    raw = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def table6_systems(ranking: Sequence[str]):
    """The paper's Table 6 systems; Graphene is built on ``ranking``."""
    graphene = graphene_model(list(ranking))
    return [UML, L4LINUX, FREEBSD_EMU, graphene,
            graphene_plus_sched(graphene)]


def _choose(s: float, *choices: Sequence) -> List[Tuple[float, tuple]]:
    """Every combination of ``choices`` with its product weight."""
    combos: List[Tuple[float, tuple]] = [(1.0, ())]
    for options in choices:
        weights = _law(len(options), s)
        combos = [(w * v, combo + (option,))
                  for w, combo in combos
                  for v, option in zip(weights, options)]
    return combos


def _with_release(params: Dict[str, object],
                  release: Optional[int]) -> Dict[str, object]:
    if release is not None:
        params["release"] = release
    return params


def catalogue(endpoints: Sequence[str], ranking: Sequence[str], s: float,
              n_releases: int = 1,
              dimensions: Sequence[str] = DIMENSION_ORDER
              ) -> List[Tuple[float, Req]]:
    """Every query of a mix with its weight; the weights sum to 1.

    ``endpoints`` are names from the server's table, ranked in its
    display order.  ``ranking`` is the corpus's syscall importance
    ranking; ``n_releases`` above 1 serves a train, whose dataset
    queries then also name a release.  ``dimensions`` are the ones
    dimension-taking queries ask about.
    """
    head = n_releases - 1
    releases = [None] + list(range(head - 1, -1, -1))
    windows = list(range(head - 1, -1, -1))          # trend ``from``
    ranked = list(ranking)
    systems = table6_systems(ranked)
    supported = [sorted(system.supported) for system in systems]
    lacking = [[api for api in ranked if api not in system.supported]
               for system in systems]
    order = [e.name for e in SERVED if e.name in endpoints]
    out: List[Tuple[float, Req]] = []
    for weight, endpoint in zip(_law(len(order), s), order):
        if endpoint in ("importance", "unweighted", "curve"):
            combos = [(w, query(endpoint, _with_release(
                {"dimension": dim}, release)))
                for w, (dim, release)
                in _choose(s, dimensions, releases)]
        elif endpoint in ("completeness", "evaluate"):
            body = ({} if endpoint == "completeness"
                    else {"name": "perfbench"})
            combos = [(w, query(endpoint, _with_release({}, release),
                                body=dict(body, supported=apis)))
                      for w, (apis, release)
                      in _choose(s, supported, releases)]
        elif endpoint == "plan":
            combos = [(w, query(endpoint, _with_release({}, release),
                                body={"modified": apis}))
                      for w, (apis, release)
                      in _choose(s, [a for a in lacking if a], releases)]
        elif endpoint == "stats":
            combos = [(w, query(endpoint, _with_release({}, release)))
                      for w, (release,) in _choose(s, releases)]
        elif endpoint == "dep_semantics":
            combos = [(w, query(endpoint, {"dimension": dim}))
                      for w, (dim,) in _choose(s, dimensions)]
        elif endpoint == "series_stats":
            combos = [(1.0, query(endpoint))]
        elif endpoint == "trend_importance":
            combos = [(w, query(endpoint, {"apis": ",".join(apis),
                                           "from": start}))
                      for w, (apis, start)
                      in _choose(s, [a for a in lacking if a], windows)]
        elif endpoint == "trend_completeness":
            combos = [(w, query(endpoint, {"from": start},
                                body={"supported": apis}))
                      for w, (apis, start)
                      in _choose(s, supported, windows)]
        elif endpoint == "release_diff":
            pairs = _choose(s, range(head, 0, -1), (False, True))
            combos = []
            for w, (to, weighted) in pairs:
                for v, (start,) in _choose(s, range(to - 1, -1, -1)):
                    combos.append((w * v, query(endpoint, {
                        "from": start, "to": to,
                        "weighted": "true" if weighted else "false"})))
        else:
            raise ValueError(f"no query shape for endpoint {endpoint!r}")
        out.extend((weight * w, req) for w, req in combos)
    return out


def block(mix: Sequence[Tuple[float, Req]], n: int,
          rng: random.Random) -> List[Req]:
    """``n`` requests apportioned to ``mix`` by weight, in seeded order."""
    quotas = [weight * n for weight, _ in mix]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(mix)),
                          key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    out = [req for (_, req), count in zip(mix, counts)
           for _ in range(count)]
    rng.shuffle(out)
    return out


def stream(workload: str, seed: int, mix: Sequence[Tuple[float, Req]],
           n_block: int, sat_blocks: int, open_blocks: int,
           reload_paths: Sequence[str] = ()) -> List[Req]:
    """``sat_blocks`` saturation blocks, then ``open_blocks`` open-loop
    blocks.

    With ``reload_paths``, a ``POST /admin/reload`` to the next path
    (round robin, starting at the second) sits between consecutive
    saturation blocks, so reloads fall at fixed request counts and
    the open-loop blocks run on the generation the last saturation
    block warmed.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    out: List[Req] = []
    for index in range(sat_blocks + open_blocks):
        if reload_paths and 0 < index < sat_blocks:
            out.append(reload(reload_paths[index % len(reload_paths)]))
        out.extend(block(mix, n_block, rng))
    return out


def distinct(reqs: Sequence[Req]) -> List[Req]:
    """The queries of ``reqs``, each once, in first-seen order."""
    seen, out = set(), []
    for req in reqs:
        if req.endpoint != "reload" and req.key not in seen:
            seen.add(req.key)
            out.append(req)
    return out


def shares(warm: Sequence[Req], reqs: Sequence[Req]) -> Dict[str, float]:
    """Measured shares of repeated queries and of ``?release=`` queries.

    A query repeats when an identical query (method, target, body) was
    sent earlier on the same generation, warm-up included: a reload
    publishes a new generation, after which nothing has been asked.
    Reloads are writes and count in neither share.
    """
    seen = {req.key for req in warm}
    queries = repeats = with_release = 0
    for req in reqs:
        if req.endpoint == "reload":
            seen = set()
            continue
        queries += 1
        if req.key in seen:
            repeats += 1
        else:
            seen.add(req.key)
        if req.release is not None:
            with_release += 1
    return {"repeat_share": repeats / queries if queries else 0.0,
            "release_share": with_release / queries if queries else 0.0}
