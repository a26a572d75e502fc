(** Adaptive protocol parameters: choose [(n, r)] {e per attempt}.

    The paper fixes one [(n, r)] for the whole initialization.  But a
    host that has just aborted an attempt has learned something — with
    blacklisting, the occupancy of the remaining address pool drops
    with every conflict — so the optimal next attempt may differ from
    the first one.  Casting attempts as MDP stages and parameter pairs
    as actions ({!Dtmc.Mdp}), value iteration yields the optimal
    adaptive schedule and its cost.

    Two structural facts anchor the model (both property-tested):
    without blacklisting the occupancy is constant, every stage looks
    alike, and the optimal policy is stationary with value exactly
    [min over the candidate grid of Eq. 3]; with blacklisting the
    adaptive value can only improve on the best fixed choice. *)

type choice = { n : int; r : float }

type schedule = {
  per_attempt : choice array;
      (** Optimal choice for attempt 1, 2, ...; the last entry repeats
          for all later attempts. *)
  expected_cost : float;
  fixed_best : choice;
      (** Best single choice applied at every attempt (the paper's
          setting, restricted to the same candidate grid). *)
  fixed_cost : float;
  improvement : float;  (** [fixed_cost - expected_cost >= 0]. *)
}

val solve : Params.t -> refinement:Attempts.refinement -> schedule
(** Solve the adaptive design problem over a candidate grid: [n] in
    1–8 crossed with a small [r] grid scaled to the scenario's delay
    distribution.  The first 64 attempts are distinguished stages;
    beyond them the occupancy is frozen, which is exact for
    non-blacklisting refinements and a lower-order approximation
    otherwise.  Rate limiting is honoured as per-stage delay costs. *)
