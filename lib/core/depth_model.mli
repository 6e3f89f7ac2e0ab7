(** Probabilistic estimation of rank-join input cardinality — Section 4.

    The {e depth} of a rank-join operator is the number of tuples it must
    consume from an input to produce the top [k] join results. The model
    proceeds in three steps (Figure 7):

    + {e Any-k depths} [cL, cR]: enough tuples that ~k valid join results
      exist among them (Theorem 1: [s·cL·cR ≥ k]).
    + {e Top-k depths} [dL, dR]: deep enough that those k results are
      guaranteed to be the global top-k (Theorem 2, via score-difference
      slabs).
    + Choose [cL, cR] to minimise [dL, dR].

    The engine's rank joins poll the input whose threshold term is largest,
    which evens out the score decrements of their inputs; {!threshold_depths}
    is the depth at which that operator stops, and the one depth the cost
    model, propagation and EXPLAIN ANALYZE use. The worst case over
    sum-of-uniform inputs (Equations 2-5) is kept as the certification
    bound. Everything is computed in log space. *)

type side = {
  fan : int;  (** Number of base ranked relations feeding this input (l or r). *)
  card : float;  (** Cardinality of this input stream. *)
}

type params = {
  k : float;  (** Required number of ranked join results (≥ 1). *)
  s : float;  (** Join selectivity (0 < s ≤ 1). *)
  n : float;  (** Per-base-relation cardinality (the paper's n). *)
  left : side;
  right : side;
}

type depths = { d_left : float; d_right : float }

val any_k_depths : k:float -> s:float -> x:float -> y:float -> float * float
(** Slab form of step 1: [cL = sqrt(y·k / (x·s))], [cR = sqrt(x·k / (y·s))],
    where [x]/[y] are the mean score decrements per rank position of the
    left/right input. These minimise [δ = x·cL + y·cR] under [s·cL·cR ≥ k]. *)

type input = {
  density : float;
      (** [c]: the input holds [c·t^fan / fan!] tuples within score
          decrement [t] of its top. *)
  fan : int;  (** [f ≥ 1]: the number of uniform scores summed per tuple. *)
  card : float;  (** The input's cardinality: its depth is clamped to it. *)
}

val threshold_depths : k:float -> s:float -> input array -> float array
(** The equal-decrement stop of an m-input rank join (m ≥ 2) whose inputs
    join with pairwise selectivity [s]. With [F = Σ fan_i], the join results
    within combined decrement [δ] number [s^(m-1)·∏c_i·δ^F / F!]; the
    operator stops at the [δ] where that count is [k], having read
    [d_i = c_i·δ^fan_i / fan_i!] from input [i], clamped to
    [\[1, card_i\]].

    The cost model feeds it [c_i = 1/x_i] and [fan_i = 1] for two single
    ranked base relations with mean score slabs [x_i] (then [d_i·x_i] is
    the same for both inputs), and otherwise [c_i = card_i] over unit
    score ranges, which is the average-case form of Section 4.3 with each
    input's cardinality in place of [n]: [sqrt(2k/s)] at m = 2 with fan 1,
    [(m!·k / s^(m-1))^(1/m)] over m symmetric inputs. *)

val worst_case_depths : params -> depths
(** Equations 2-5: strict upper bounds for a join of a u{_l}-distributed
    input with a u{_r}-distributed input — the certification bound
    [ablate-depthmode] reports beside the threshold depths. *)

val clamped : params -> depths -> depths
(** Clamp each depth into [\[1, side.card\]] — an operator can never read
    more tuples than its input holds. *)

val buffer_upper_bound : depths -> s:float -> float
(** Worst-case rank-join buffer size [dL·dR·s] (Section 5.3). *)
