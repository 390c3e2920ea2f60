type protocol_class = Tagless | Tagged | General

let class_to_string = function
  | Tagless -> "tagless"
  | Tagged -> "tagged"
  | General -> "general"

let class_rank = function Tagless -> 0 | Tagged -> 1 | General -> 2

let class_leq a b = class_rank a <= class_rank b

type verdict = Not_implementable | Implementable of protocol_class

type result = {
  verdict : verdict;
  orders : int list;
  orders_truncated : bool;
  best_cycle : Cycles.cycle option;
  necessity_exact : bool;
  simplification : [ `None | `Dropped_tautologies | `Unsatisfiable ];
}

let classify p =
  let necessity_exact = not (Forbidden.is_guarded p) in
  match Forbidden.simplify p with
  | Forbidden.Unsatisfiable ->
      (* B never holds, so X_B is all of X_async: the do-nothing protocol
         already guarantees it. *)
      {
        verdict = Implementable Tagless;
        orders = [];
        orders_truncated = false;
        best_cycle = None;
        necessity_exact;
        simplification = `Unsatisfiable;
      }
  | Forbidden.Simplified p' ->
      let simplification =
        if
          List.length (Forbidden.conjuncts p')
          = List.length (Forbidden.conjuncts p)
        then `None
        else `Dropped_tautologies
      in
      let graph = Pgraph.of_predicate p' in
      let verdict =
        match Cycles.least_order_capped graph with
        | None -> Not_implementable
        | Some 0 -> Implementable Tagless
        | Some 1 -> Implementable Tagged
        | Some _ -> Implementable General
      in
      let { Cycles.orders; best = best_cycle; truncated = orders_truncated }
          =
        Cycles.orders graph
      in
      {
        verdict;
        orders;
        orders_truncated;
        best_cycle;
        necessity_exact;
        simplification;
      }

let explain ?result p =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let r = match result with Some r -> r | None -> classify p in
  line "predicate B:  %s" (Forbidden.to_string p);
  (match r.simplification with
  | `Unsatisfiable ->
      line
        "a same-variable conjunct (x.r > x.s or x.p > x.p) can hold in no \
         partial order, so B never holds and X_B is all of X_async.";
      line
        "verdict: TAGLESS — the do-nothing protocol already guarantees the \
         specification (Theorem 3.1 degenerate case)."
  | `None | `Dropped_tautologies ->
      if r.simplification = `Dropped_tautologies then
        line
          "same-variable conjuncts x.s > x.r are true in every complete run \
           and were dropped; the specification is unchanged.";
      (match r.verdict with
      | Not_implementable ->
          line "the predicate graph has no cycle.";
          line
            "Theorem 2: acyclic graphs admit a logically synchronous run \
             satisfying B (linearize the graph and make every message \
             arrow vertical), so X_sync is not contained in X_B.";
          line
            "Corollary 1: a specification is implementable iff it contains \
             X_sync.";
          line "verdict: NOT IMPLEMENTABLE."
      | Implementable cls -> (
          if r.orders_truncated then
            line
              "the predicate graph has too many cycles to list every order \
               within the search budget, so no certificate cycle is \
               given; the verdict is exact, decided on the event graph \
               (one node per x.s and x.r).";
          (match r.best_cycle with
          | Some cycle ->
              line "certificate cycle:  %s"
                (Format.asprintf "%a" Cycles.pp_cycle cycle);
              let betas = Beta.beta_vertices cycle in
              line
                "beta vertices (incoming edge ends at .r, outgoing starts \
                 at .s): {%s} — order %d"
                (String.concat ", "
                   (List.map (fun v -> "x" ^ string_of_int v) betas))
                (List.length betas);
              if List.length cycle > 2 then begin
                let w = Weaken.contract cycle in
                line
                  "Lemma 4 contracts the cycle (eliminating non-beta \
                   vertices) to the weaker predicate:  %s"
                  (Format.asprintf "%a"
                     (Format.pp_print_list
                        ~pp_sep:(fun ppf () ->
                          Format.pp_print_string ppf " & ")
                        Term.pp_conjunct)
                     w.Weaken.final)
              end
          | None -> ());
          match cls with
          | Tagless ->
              line
                "an order-0 cycle implies an event h with h > h, which no \
                 partial order allows (Lemma 3.3): B is unsatisfiable and \
                 X_B = X_async.";
              line
                "verdict: TAGLESS — Theorem 3.1, the trivial protocol \
                 suffices."
          | Tagged ->
              line
                "an order-1 two-vertex cycle is one of the causal-ordering \
                 forms of Lemma 3.2, whose specification is exactly X_co; \
                 hence X_co is contained in X_B.";
              line
                "verdict: TAGGED — Theorem 3.2: a tagged protocol (e.g. \
                 RST matrix clocks) suffices; Theorem 4.3: the trivial \
                 protocol does not.";
              if not r.necessity_exact then
                line
                  "(guards present: sufficiency holds — guards only \
                   enlarge X_B — but the necessity direction of Theorem 4 \
                   is proved for unguarded predicates.)"
          | General ->
              line
                "every cycle has two or more beta vertices; contracting \
                 yields a crown x1.s > x2.r & ... & xk.s > x1.r (Lemma \
                 3.1), whose specification contains X_sync but not X_co.";
              line
                "verdict: GENERAL — Theorem 3.3: control messages \
                 suffice; Theorem 4.2: tagging alone cannot implement it.";
              if not r.necessity_exact then
                line
                  "(guards present: sufficiency holds; necessity is \
                   advisory.)")));
  Buffer.contents buf

let verdict_to_string = function
  | Not_implementable -> "not implementable"
  | Implementable c -> class_to_string c

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%s" (verdict_to_string r.verdict);
  let pp_orders =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
      Format.pp_print_int
  in
  (match (r.orders, r.orders_truncated) with
  | [], false -> Format.fprintf ppf " (no cycle in the predicate graph)"
  | os, false -> Format.fprintf ppf " (cycle orders: %a)" pp_orders os
  | [], true ->
      Format.fprintf ppf " (cycle orders: truncated before any was found)"
  | os, true ->
      Format.fprintf ppf " (cycle orders: %a, truncated)" pp_orders os);
  (match r.best_cycle with
  | Some c -> Format.fprintf ppf "@ certificate cycle: %a" Cycles.pp_cycle c
  | None -> ());
  if not r.necessity_exact then
    Format.fprintf ppf
      "@ (guarded predicate: class is sufficient, necessity not decided)";
  Format.fprintf ppf "@]"
