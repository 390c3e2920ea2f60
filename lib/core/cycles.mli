(** Simple cycles in predicate multigraphs, and their orders.

    A cycle is a nonempty edge sequence [e_1 … e_k] with
    [e_i.dst = e_{i+1}.src] (indices mod k) visiting k distinct vertices
    (k = 1 is a self-loop). Cycles are canonicalized to start at their
    smallest vertex, so each simple cycle is reported exactly once; two
    cycles through the same vertices but different parallel edges are
    distinct.

    The classifier needs only the least order and the set of orders, not
    the cycles: {!least_order_capped} decides the former in polynomial
    time on the event graph, and {!orders} computes the latter (with the
    certificate cycle) by a memoized search that never lists a cycle.
    {!enumerate} lists every cycle and serves the [graph] command, the
    benches, and the tests as the oracle of both. *)

type cycle = Pgraph.edge list

val vertices : cycle -> int list
(** In traversal order, starting with the canonical (smallest) vertex. *)

val enumerate : ?max_cycles:int -> Pgraph.t -> cycle list
(** All simple cycles in canonical order (roots ascending, then a DFS
    over {!Pgraph.out_edges} order), cut off silently at [max_cycles]
    (default 100_000). Dense graphs reach the cap: 9 variables with every
    [xi.s ▷ xj.r] already have over 100,000 cycles. *)

val has_cycle : Pgraph.t -> bool
(** Cheaper than [enumerate <> []]: a DFS reachability test. *)

val least_order_capped : Pgraph.t -> int option
(** [None] when the graph has no cycle, otherwise [Some (min 2 m)] where
    [m] is the least order ({!Beta.order}) of a simple cycle — exactly
    what Theorems 2–4 need. Decided on the event graph, which has a node
    per endpoint [x.s]/[x.r], an edge per conjunct and an edge
    [x.s → x.r] per message: order 0 iff the event graph has a cycle,
    order ≤ 1 iff some [x.s] reaches [x.r] without [x]'s own message
    edge. O(n·(n+e)) for n variables and e conjuncts; never truncated. *)

type orders = {
  orders : int list;
      (** Sorted orders of the simple cycles. Exact when [truncated] is
          [false]; otherwise the orders found before the search stopped
          (possibly none). *)
  best : cycle option;
      (** The first cycle of least order in {!enumerate}'s order (what a
          stable sort of its output by order puts first). [None] when the
          graph has no cycle or [truncated]. *)
  truncated : bool;
      (** The search ran past {!step_budget}, or a strongly connected
          component above a root has more than {!max_component}
          vertices. *)
}

val orders : Pgraph.t -> orders
(** Per root vertex, ascending, a DFS memoized on (vertex, visited set,
    endpoint the vertex was entered at, endpoint the cycle left the root
    at) computes the set of β-counts that can still be added on the way
    back to the root, over the vertices above the root in its strongly
    connected component — the cycles {!enumerate} lists from that root.
    The certificate is one guided walk through the memo. The work is
    bounded by {!step_budget}, whatever the graph. The memo tables are
    per-domain scratch space reused from call to call, so calls on
    different domains may run at once. *)

val step_budget : int
(** The work {!orders} may do before it stops and reports [truncated]:
    each memo state it computes costs 32 steps plus one per out-edge of
    its vertex. A constant, not an option. *)

val max_component : int
(** The largest number of vertices above a root in its component that
    {!orders} handles (the visited set is one int); larger components
    report [truncated]. *)

val pp_cycle : Format.formatter -> cycle -> unit
