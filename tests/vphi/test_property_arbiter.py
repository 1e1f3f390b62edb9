"""Stateful differential test: ``CardArbiter`` against O(n) scan selectors.

The real arbiter keeps the waiting tenants as sorted ``(rank, position)``
keys and picks a grantee with two bisects.  The reference below is the
selector it replaced: on every grant it scans every tenant in
``_order``, cyclically from the rotor (rr, wfq) or in order against the
class cursor (priority).  Both sides get the same acquires, releases,
cancels, reconfigurations, deregistrations and policy switches, and
after every step they must agree on the grant sequence, the wfq virtual
clock and finish tags, the rotor and the per-class cursors.

``VPHI_CHAOS_EXAMPLES`` raises the example count (nightly chaos job).
"""

import os
from collections import deque

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.sim import Simulator
from repro.vphi.pool import CardArbiter

N_EXAMPLES = int(os.environ.get("VPHI_CHAOS_EXAMPLES", "40"))
VMS = ("a", "b", "c", "d")
POLICIES = CardArbiter.POLICIES
weights = st.one_of(st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]))
priorities = st.one_of(st.none(), st.integers(0, 2))
picks = st.integers(0, 1 << 16)


class ScanArbiter:
    """Reference: one O(n) scan of every tenant per grant."""

    def __init__(self, slots, policy):
        self.free, self.policy = slots, policy
        self.order, self.queues = [], {}
        self.last, self.class_next = None, {}
        self.weights, self.prios = {}, {}
        self.vtime, self.finish, self.backlog_start = 0.0, {}, {}
        self.grants = []

    def configure(self, vm, weight=None, priority=None):
        if vm not in self.queues:
            self.queues[vm] = deque()
            self.order.append(vm)
        if weight is not None:
            self.weights[vm] = weight
        if priority is not None:
            self.prios[vm] = priority

    def deregister(self, vm):
        if vm not in self.queues:
            return False
        idx = self.order.index(vm)
        if self.last == vm:
            self.last = self.order[idx - 1] if len(self.order) > 1 else None
        self.order.pop(idx)
        self.class_next = {p: c - 1 if c > idx else c
                           for p, c in self.class_next.items()}
        del self.queues[vm]
        for table in (self.weights, self.prios, self.finish, self.backlog_start):
            table.pop(vm, None)
        return True

    def acquire(self, vm, token):
        self.configure(vm)
        if not self.queues[vm]:
            self.backlog_start[vm] = max(self.vtime, self.finish.get(vm, 0.0))
        self.queues[vm].append(token)
        self.pump()

    def release(self):
        self.free += 1
        self.pump()

    def pump(self):
        while self.free and any(self.queues.values()):
            vm = self.select()
            self.free -= 1
            self.grants.append((vm, self.queues[vm].popleft()))

    def select(self):
        n = len(self.order)
        start = 0 if self.last is None else self.order.index(self.last) + 1
        ring = [self.order[(start + k) % n] for k in range(n)]
        waiting = [v for v in ring if self.queues[v]]
        if self.policy == "priority":
            best = min(self.prios.get(v, 0) for v in waiting)
            members = [i for i, v in enumerate(self.order)
                       if self.queues[v] and self.prios.get(v, 0) == best]
            cursor = self.class_next.get(best, 0)
            i = next((i for i in members if i >= cursor), members[0])
            self.class_next[best] = i + 1
            return self.order[i]
        if self.policy == "wfq":
            weighted = [v for v in waiting if self.weights.get(v, 1.0) > 0.0]
            if weighted:
                tag = {v: max(self.backlog_start.get(v, 0.0),
                              self.finish.get(v, 0.0)) + 1.0 / self.weights.get(v, 1.0)
                       for v in weighted}
                waiting = [min(weighted, key=tag.get)]  # first of equal tags
                best = waiting[0]
                self.vtime = max(self.vtime,
                                 tag[best] - 1.0 / self.weights.get(best, 1.0))
                self.finish[best] = tag[best]
        self.last = waiting[0]
        return waiting[0]


class ArbiterDiff(RuleBasedStateMachine):
    @initialize(slots=st.integers(1, 2), policy=st.sampled_from(POLICIES))
    def setup(self, slots, policy):
        self.real = CardArbiter(Simulator(), slots=slots, policy=policy)
        self.ref = ScanArbiter(slots, policy)
        #: ``(vm, event)`` per real grant; the events stay referenced,
        #: so ``token_of`` (keyed by ``id``) never sees an id reused.
        self.real_grants = []
        real_grant = self.real._grant

        def spy(vm, ev):
            self.real_grants.append((vm, ev))
            real_grant(vm, ev)

        self.real._grant = spy
        self.token_of = {}
        self.queued = {}   # token -> (vm, event), not yet granted
        self.held = {}     # token -> (vm, event), granted, not released
        self.next_token = 0

    def _settle(self):
        """Move every token granted by the last step from queued to held."""
        for _, ev in self.real_grants:
            token = self.token_of[id(ev)]
            if token in self.queued:
                self.held[token] = self.queued.pop(token)

    @rule(vm=st.sampled_from(VMS))
    def acquire(self, vm):
        token = self.next_token
        self.next_token += 1
        ev = self.real.acquire(vm)
        self.token_of[id(ev)] = token
        self.queued[token] = (vm, ev)
        self.ref.acquire(vm, token)
        self._settle()

    @precondition(lambda self: self.held)
    @rule(pick=picks)
    def release(self, pick):
        token = sorted(self.held)[pick % len(self.held)]
        vm, _ = self.held.pop(token)
        self.real.release(vm)
        self.ref.release()
        self._settle()

    @precondition(lambda self: self.held)
    @rule(pick=picks)
    def cancel_granted(self, pick):
        token = sorted(self.held)[pick % len(self.held)]
        vm, ev = self.held.pop(token)
        self.real.cancel(vm, ev)
        self.ref.release()
        self._settle()

    @precondition(lambda self: self.queued)
    @rule(pick=picks)
    def cancel_queued(self, pick):
        token = sorted(self.queued)[pick % len(self.queued)]
        vm, ev = self.queued.pop(token)
        self.real.cancel(vm, ev)
        self.ref.queues[vm].remove(token)

    @rule(vm=st.sampled_from(VMS), weight=weights, priority=priorities)
    def configure(self, vm, weight, priority):
        self.real.configure(vm, weight=weight, priority=priority)
        self.ref.configure(vm, weight=weight, priority=priority)

    @rule(vm=st.sampled_from(VMS))
    def deregister(self, vm):
        if any(v == vm for v, _ in self.queued.values()):
            return  # only an idle tenant may leave the card
        assert self.real.deregister(vm) == self.ref.deregister(vm)

    @rule(policy=st.sampled_from(POLICIES))
    def set_policy(self, policy):
        self.real.set_policy(policy)
        self.ref.policy = policy

    @invariant()
    def same_grants_and_state(self):
        real, ref = self.real, self.ref
        assert [(vm, self.token_of[id(ev)])
                for vm, ev in self.real_grants] == ref.grants
        assert real._vtime == ref.vtime
        assert real._finish == ref.finish
        assert real._last == ref.last
        assert real._class_next == ref.class_next
        assert real._order == ref.order
        assert real.free == ref.free
        assert real.waiting == sum(len(q) for q in ref.queues.values())


TestArbiterDiff = ArbiterDiff.TestCase
TestArbiterDiff.settings = settings(
    max_examples=N_EXAMPLES, stateful_step_count=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
