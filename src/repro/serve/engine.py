"""The pattern-serving query engine — transport-independent core.

A :class:`ServingIndex` is built (or loaded) **once**; a
:class:`PatternEngine` then answers point queries over it forever.  The
engine is deliberately socket-free: the daemon's connection handler, the
tests and the smoke client all call :meth:`PatternEngine.handle` with a
plain request dict and get a plain response envelope back, so every
serving semantic (budgets, caching, coalescing, error taxonomy) is
testable without a single byte on a wire.

Endpoints (``op`` field of the request):

``ping``
    Liveness probe.
``frequency``
    Exact support / subset check of an arbitrary itemset, answered from
    the :meth:`~repro.core.flat.FlatPLT.support` postings intersection
    without mining.
``topk``
    The ``k`` most frequent itemsets *containing a given item*, mined on
    demand from the item's conditional database
    (:meth:`~repro.core.flat.FlatPLT.paths_through` fed to
    :func:`~repro.core.conditional.mine_conditional_paths`) and memoized
    — the daemon never materialises the full frequent set for these.
``rules`` / ``recommend``
    Association rules over the full frequent set (Algorithm 3 over the
    held columns on first use, cached per support level) — ``recommend``
    filters them against a basket and applies the CBA first-match step
    (:func:`~repro.apps.classifier.first_matching_rule`).
``stats``
    Counters: per-op totals, cache hits/misses/coalesced, admission
    admitted/rejected/inflight, index shape.

Every response envelope carries ``ok``, ``op``, ``elapsed``, and for
mining ops ``complete``/``stop_reason`` (the
:class:`~repro.core.mining.PartialResult` markers) plus ``source`` —
``"hit"``, ``"miss"``, ``"coalesced"`` for cached ops, ``"index"`` or
``"direct"`` otherwise.  Budget-tripped answers are returned with their
exact partial contents but are never cached.
"""

from __future__ import annotations

import os
import threading
import time

from repro.apps.classifier import first_matching_rule
from repro.core.conditional import mine_conditional, mine_conditional_paths
from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from repro.core.rank import CanonicalDecoder, RankTable, sort_key
from repro.data.transaction_db import resolve_min_support
from repro.errors import (
    InvalidParameterError,
    InvalidSupportError,
    MiningInterrupted,
    ReproError,
    ServeError,
    ServeProtocolError,
    UnknownItemError,
)
from repro.robustness.governor import CancellationToken, MiningBudget
from repro.rules.generation import Rule, generate_rules
from repro.serve.admission import (
    AdmissionController,
    budget_from_request,
    budget_signature,
)
from repro.serve.cache import ServingCache

__all__ = ["ServingIndex", "PatternEngine", "serialize_rule"]


class ServingIndex:
    """The immutable read path of the daemon: rank table + PLT columns.

    Holds one :class:`~repro.core.flat.FlatPLT` as ``postings`` — its CSR
    postings answer point queries and conditional databases, and rules
    queries mine its columns whole — plus the header facts every answer
    needs (build threshold, transaction count).  Everything the engine
    reads (postings, NumPy views, rank supports, the pair-support matrix)
    is built here, so handler threads only ever read it.
    """

    __slots__ = ("rank_table", "min_support", "n_transactions", "postings")

    def __init__(self, rank_table: RankTable, flat: FlatPLT):
        self.rank_table = rank_table
        self.min_support = flat.min_support
        self.n_transactions = flat.n_transactions
        self.postings = flat
        flat.postings()
        flat.pair_support_matrix()

    @classmethod
    def from_plt(cls, plt: PLT) -> "ServingIndex":
        """Lower a built PLT; the index keeps no reference to it.

        Pass the PLT as a temporary, so that once lowered it can be freed
        before the serving reads are built.
        """
        rank_table, flat = plt.rank_table, FlatPLT.from_plt(plt)
        del plt
        return cls(rank_table, flat)

    @classmethod
    def from_transactions(
        cls, transactions, min_support: float | int, *, order: str = "lexicographic"
    ) -> "ServingIndex":
        """Algorithm 1 once, columns forever."""
        return cls.from_plt(PLT.from_transactions(transactions, min_support, order=order))

    @classmethod
    def from_store(cls, path) -> "ServingIndex":
        """Load a compressed :class:`~repro.compress.store.PLTStore` file.

        The store is streamed bucket-by-bucket into the columns and then
        closed — the daemon holds no file handle afterwards.
        """
        from repro.compress.store import PLTStore

        with PLTStore(path) as store:
            flat = FlatPLT.from_buckets(
                store.iter_rank_path_buckets(),
                min_support=store.min_support,
                n_transactions=store.n_transactions,
            )
            return cls(store.rank_table, flat)


def serialize_rule(rule: Rule) -> dict:
    """A :class:`~repro.rules.generation.Rule` as a JSON-ready dict."""
    return {
        "antecedent": list(rule.antecedent),
        "consequent": list(rule.consequent),
        "support_count": rule.support_count,
        "support": rule.support,
        "confidence": rule.confidence,
        "lift": rule.lift,
        "leverage": rule.leverage,
        "conviction": rule.conviction,
    }


class PatternEngine:
    """Dispatch + governance + caching over a :class:`ServingIndex`."""

    OPS = ("ping", "health", "frequency", "topk", "rules", "recommend", "stats")

    def __init__(
        self,
        index: ServingIndex,
        *,
        cache_size: int = 128,
        coalesce: bool = True,
        max_inflight: int = 8,
        default_budget: MiningBudget | None = None,
        deadline_cap: float | None = None,
        itemset_cap: int | None = None,
        memory_cap: int | None = None,
    ):
        self.index = index
        self._decoder = CanonicalDecoder(index.rank_table)
        self.cache = ServingCache(cache_size, coalesce=coalesce)
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            default_budget=default_budget,
            deadline_cap=deadline_cap,
            itemset_cap=itemset_cap,
            memory_cap=memory_cap,
        )
        self._started_at = time.monotonic()
        self._lock = threading.Lock()
        self._op_counts: dict[str, int] = {}
        self._errors = 0
        #: Extra facts merged into ``health`` answers — the serve worker
        #: records its snapshot provenance (incarnation, restored, digest)
        #: here so a supervisor can read them over the wire.
        self.health_info: dict = {}

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, request, *, cancel: CancellationToken | None = None) -> dict:
        """Answer one request dict with a response envelope dict.

        Never raises for malformed or over-budget requests — those become
        ``{"ok": false, "code": ...}`` envelopes, because one bad query
        must cost exactly one bad answer, not a connection or a daemon.
        """
        start = time.monotonic()
        op = request.get("op") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict):
                raise ServeProtocolError(
                    f"request must be a JSON object, got {type(request).__name__}",
                    code="bad_request",
                )
            if op not in self.OPS:
                raise ServeProtocolError(
                    f"unknown op {op!r}; expected one of {self.OPS}",
                    code="bad_request",
                )
            with self._lock:
                self._op_counts[op] = self._op_counts.get(op, 0) + 1
            envelope = getattr(self, "_op_" + op)(request, cancel)
        except ServeError as exc:
            envelope = self._error(str(exc), exc.code)
        except MiningInterrupted as exc:
            # ops with no meaningful partial form (frequency scans, rules
            # over a not-downward-closed table) surface the trip as an error
            envelope = self._error(str(exc), "budget")
            envelope["stop_reason"] = exc.reason
        except (InvalidSupportError, InvalidParameterError, UnknownItemError) as exc:
            envelope = self._error(str(exc), "bad_request")
        except ReproError as exc:
            envelope = self._error(str(exc), "internal")
        envelope["op"] = op
        envelope["elapsed"] = time.monotonic() - start
        return envelope

    def _error(self, message: str, code: str) -> dict:
        with self._lock:
            self._errors += 1
        return {"ok": False, "error": message, "code": code}

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _min_support(self, request) -> int:
        value = request.get("min_support")
        if value is None:
            return self.index.min_support
        if not isinstance(value, (int, float)):
            raise ServeProtocolError(
                f"min_support must be numeric, got {value!r}", code="bad_request"
            )
        s = resolve_min_support(value, self.index.n_transactions)
        if s < self.index.min_support:
            raise ServeProtocolError(
                f"min_support {s} is below the structure's build threshold "
                f"{self.index.min_support}; rebuild the index to serve it",
                code="bad_request",
            )
        return s

    @staticmethod
    def _threshold(request, name: str, default):
        """A numeric rule threshold; ``null`` only where it is the default."""
        value = request.get(name, default)
        if value is None and default is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ServeProtocolError(
                f"{name} must be numeric, got {value!r}", code="bad_request"
            )
        return value

    @staticmethod
    def _order_key(entry):
        items, support = entry
        return (-support, len(items), [sort_key(i) for i in items])

    def _cached(self, store_key, budget, cancel, compute_with_governor):
        """Run ``compute_with_governor`` through cache + admission.

        The store key identifies the *answer*; the flight key additionally
        carries the effective budget signature and the cancellation-token
        identity, so differently-governed identical queries never coalesce
        onto one another (a tiny-budget leader must not donate its partial
        answer, and a cancellable query must not donate its cancellation).
        """
        effective = self.admission.effective_budget(budget)
        flight_key = (
            store_key,
            budget_signature(effective),
            None if cancel is None else id(cancel),
        )

        def compute():
            with self.admission.admit(budget, cancel) as governor:
                return compute_with_governor(governor)

        return self.cache.get_or_compute(store_key, compute, flight_key=flight_key)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _op_ping(self, request, cancel) -> dict:
        return {"ok": True, "result": {"pong": True}, "complete": True, "source": "direct"}

    def _op_health(self, request, cancel) -> dict:
        """Liveness + readiness in one deadline-bounded probe.

        ``live`` is implied by any answer at all; ``ready`` means the
        index is loaded and queries will be served (always true once the
        engine exists — the worker only binds the socket afterwards).
        """
        result = {
            "live": True,
            "ready": True,
            "engine": "exact",
            "pid": os.getpid(),
            "uptime": time.monotonic() - self._started_at,
        }
        result.update(self.health_info)
        return {"ok": True, "result": result, "complete": True, "source": "direct"}

    def _op_frequency(self, request, cancel) -> dict:
        items = request.get("items")
        if not isinstance(items, (list, tuple)) or not items:
            raise ServeProtocolError(
                "frequency requires a non-empty 'items' list", code="bad_request"
            )
        s = self._min_support(request)
        budget = budget_from_request(request.get("budget"))
        table = self.index.rank_table
        try:
            unknown = [i for i in items if i not in table]
        except TypeError:
            raise ServeProtocolError(
                "frequency items must be hashable scalars", code="bad_request"
            ) from None
        if unknown:
            # an item the rank table never admitted is infrequent by
            # construction — the itemset cannot be frequent, and its exact
            # support is not derivable from the structure
            result = {
                "items": sorted(set(items), key=sort_key),
                "known": False,
                "support": None,
                "frequent": False,
                "contained": False,
            }
            return {"ok": True, "result": result, "complete": True, "source": "index"}
        ranks = table.encode_itemset(items)
        with self.admission.admit(budget, cancel) as governor:
            if governor is not None:
                governor.check_now()
            support = self.index.postings.support(ranks, governor=governor)
        result = {
            "items": list(self._decoder.decode(ranks)),
            "known": True,
            "support": support,
            "frequent": support >= s,
            "contained": support > 0,
        }
        return {"ok": True, "result": result, "complete": True, "source": "index"}

    # -- conditional / top-k -------------------------------------------
    def _conditional_compute(self, rank: int, min_support: int, governor):
        """Mine every frequent itemset containing ``rank``; exact supports.

        The item's conditional database is read straight off the postings:
        each stored path through the rank, with the rank removed.  Mining
        it at ``min_support`` with suffix ``(rank,)`` enumerates exactly
        the frequent itemsets containing the item — bit-for-bit what
        filtering a full mine yields, without ever running one.

        Returns ``((entries, complete, stop_reason), cacheable)`` where
        entries are decoded, canonically ordered, and ``cacheable`` is
        true only for complete answers.
        """
        flat = self.index.postings
        pairs: list[tuple[tuple[int, ...], int]] = []
        complete = True
        stop_reason = None
        try:
            if governor is not None:
                governor.check_now()
            support = flat.support((rank,))
            if support >= min_support:
                if governor is not None:
                    governor.note_itemsets()
                pairs.append(((rank,), support))

                def emit(itemset, sup):
                    if governor is not None:
                        governor.note_itemsets()
                    pairs.append((itemset, sup))

                mine_conditional_paths(
                    flat.paths_through(rank), rank, min_support, emit,
                    governor=governor,
                )
        except MiningInterrupted as exc:
            complete = False
            stop_reason = exc.reason
        entries = [(self._decoder.decode(ranks), sup) for ranks, sup in pairs]
        entries.sort(key=self._order_key)
        return (entries, complete, stop_reason), complete

    def _op_topk(self, request, cancel) -> dict:
        if "item" not in request:
            raise ServeProtocolError("topk requires an 'item' field", code="bad_request")
        item = request["item"]
        k = request.get("k", 10)
        if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
            raise ServeProtocolError(
                f"k must be a positive integer or null, got {k!r}", code="bad_request"
            )
        s = self._min_support(request)
        budget = budget_from_request(request.get("budget"))
        try:
            known = item in self.index.rank_table
        except TypeError:
            raise ServeProtocolError(
                "topk item must be a hashable scalar", code="bad_request"
            ) from None
        if not known:
            result = {"item": item, "k": k, "available": 0, "itemsets": []}
            return {"ok": True, "result": result, "complete": True, "source": "index"}
        rank = self.index.rank_table.rank(item)
        value, source = self._cached(
            ("cond", rank, s),
            budget,
            cancel,
            lambda governor: self._conditional_compute(rank, s, governor),
        )
        entries, complete, stop_reason = value
        top = entries if k is None else entries[:k]
        result = {
            "item": item,
            "k": k,
            "available": len(entries),
            "itemsets": [{"items": list(it), "support": sup} for it, sup in top],
        }
        envelope = {"ok": True, "result": result, "complete": complete, "source": source}
        if stop_reason is not None:
            envelope["stop_reason"] = stop_reason
        return envelope

    # -- rules / recommendations ---------------------------------------
    def _rules_for(self, s: int, min_confidence: float, min_lift, budget, cancel):
        """The ranked rule list at a support/confidence level, cached.

        The underlying full mine runs under the query's governor; a budget
        trip raises :class:`~repro.errors.MiningInterrupted` (a partial
        support table is not downward closed, so rules cannot be generated
        from it — the caller surfaces a ``budget`` error instead of wrong
        confidences).
        """

        def compute(governor):
            if governor is not None:
                governor.check_now()
            table_key = ("table", s)
            table = self.cache.peek(table_key)
            if table is None:
                pairs = mine_conditional(self.index.postings, s, governor=governor)
                # insertion order must match MiningResult.as_dict() — rule
                # generation breaks sort ties by table iteration order, and
                # the differential contract is bit-for-bit agreement
                table = {
                    frozenset(items): sup
                    for items, sup in self._decoder.itemsets(pairs)
                }
                # memoized via the engine cache so repeated rule queries at
                # other confidence levels skip the mine; a plain store (not
                # get_or_compute) because admission already governs us here
                self.cache.get_or_compute(table_key, lambda: (table, True))
            rules = generate_rules(
                table, self.index.n_transactions, min_confidence, min_lift=min_lift
            )
            return rules, True

        return self._cached(
            ("rules", s, min_confidence, min_lift), budget, cancel, compute
        )

    def _op_rules(self, request, cancel) -> dict:
        s = self._min_support(request)
        min_confidence = self._threshold(request, "min_confidence", 0.5)
        min_lift = self._threshold(request, "min_lift", None)
        limit = request.get("limit", 50)
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or limit < 1
        ):
            raise ServeProtocolError(
                f"limit must be a positive integer or null, got {limit!r}",
                code="bad_request",
            )
        budget = budget_from_request(request.get("budget"))
        rules, source = self._rules_for(s, min_confidence, min_lift, budget, cancel)
        shown = rules if limit is None else rules[:limit]
        result = {
            "total": len(rules),
            "rules": [serialize_rule(r) for r in shown],
        }
        return {"ok": True, "result": result, "complete": True, "source": source}

    def _op_recommend(self, request, cancel) -> dict:
        basket_items = request.get("basket")
        if not isinstance(basket_items, (list, tuple)) or not basket_items:
            raise ServeProtocolError(
                "recommend requires a non-empty 'basket' list", code="bad_request"
            )
        try:
            basket = frozenset(basket_items)
        except TypeError:
            raise ServeProtocolError(
                "basket items must be hashable scalars", code="bad_request"
            ) from None
        s = self._min_support(request)
        min_confidence = self._threshold(request, "min_confidence", 0.5)
        min_lift = self._threshold(request, "min_lift", None)
        top = request.get("top", 5)
        if isinstance(top, bool) or not isinstance(top, int) or top < 1:
            raise ServeProtocolError(
                f"top must be a positive integer, got {top!r}", code="bad_request"
            )
        budget = budget_from_request(request.get("budget"))
        rules, source = self._rules_for(s, min_confidence, min_lift, budget, cancel)
        # a useful recommendation's antecedent is satisfied by the basket
        # and its consequent adds something new
        candidates = [
            r
            for r in rules
            if frozenset(r.antecedent) <= basket and not (frozenset(r.consequent) & basket)
        ]
        best = first_matching_rule(candidates, basket)
        result = {
            "basket": sorted(basket, key=sort_key),
            "total_matches": len(candidates),
            "recommendations": [serialize_rule(r) for r in candidates[:top]],
            "best": None if best is None else serialize_rule(best),
        }
        return {"ok": True, "result": result, "complete": True, "source": source}

    # -- stats ----------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            ops = dict(self._op_counts)
            errors = self._errors
        return {
            "uptime": time.monotonic() - self._started_at,
            "queries": sum(ops.values()),
            "errors": errors,
            "ops": ops,
            "cache": self.cache.stats().as_dict(),
            "admission": self.admission.stats(),
            "index": {
                "n_items": len(self.index.rank_table),
                "n_paths": self.index.postings.n_paths,
                "min_support": self.index.min_support,
                "n_transactions": self.index.n_transactions,
            },
        }

    def _op_stats(self, request, cancel) -> dict:
        return {"ok": True, "result": self.stats(), "complete": True, "source": "direct"}
