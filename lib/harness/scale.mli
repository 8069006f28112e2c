(** Scale engine (§9-style stress): thousands of concurrent flow updates
    over a Topology Zoo WAN, driven by a Poisson arrival process on the
    discrete-event kernel.

    Each arrival burst rotates a set of distinct active flows onto their
    next precomputed alternative path, prepares the burst through
    {!P4update.Controller.prepare_batch} (shared traversal state) and
    pushes it; a fraction of bursts churns the flow population.
    Completion times are captured per update via an [on_report] hook, and
    Thm. 1–4 invariant probes run on a sampled subset of bursts.  All
    randomness comes from the world's simulation RNG, so the workload and
    event schedule are a pure function of [Run_config.seed]. *)

type workload = {
  wl_updates : int;           (** stop admitting bursts after this many updates *)
  wl_flows : int;             (** concurrent flow population size *)
  wl_arrival_mean_ms : float; (** Poisson mean between bursts *)
  wl_burst : int;             (** updates per burst (distinct flows) *)
  wl_churn : float;           (** per-burst probability of one flow churning *)
  wl_probe_every : int;       (** invariant probe every n bursts; 0 disables *)
  wl_flow_size : int;         (** per-flow size (centi-units) *)
  wl_horizon_ms : float;      (** simulation bound *)
}

(** 1000 updates over 200 flows, 5 ms mean inter-burst, bursts of 8,
    5% churn, probe every 25 bursts, size-1 flows, 300 s horizon. *)
val default_workload : workload

(** Rolling SLO window length (simulated ms) when [Run_config.tick_ms]
    is not set. *)
val default_tick_ms : float

type result = {
  sr_topology : string;
  sr_updates_pushed : int;
  sr_updates_completed : int;
  sr_bursts : int;
  sr_underfilled : int;
      (** bursts clamped below [wl_burst] because the distinct-flow pick
          loop exhausted its tries (tiny populations) *)
  sr_churned : int;
  sr_probes : int;
  sr_completion_ms : float list; (** one sample per completed update *)
  sr_p50_ms : float;
  sr_p99_ms : float;
  sr_sim_ms : float;             (** simulated time at drain *)
  sr_events : int;
  sr_events_per_s : float;       (** kernel dispatch rate (monotonic wall clock) *)
  sr_updates_per_s : float;      (** completed updates per wall second *)
  sr_violations : Invariants.violation list;
  sr_series : Obs.Timeseries.window list;
      (** rolling SLO windows (one per [Run_config.tick_ms], default 1 s
          simulated): update-latency p50/p99, push/completion rates,
          in-flight updates, heap footprint *)
}

(** Ride-along observation hooks (the traffic engine).  The factory given
    to {!run} is called once the initial flow population is admitted —
    enumerate [World.flows] there — and the returned hooks fire as the
    workload unfolds.  [h_pushed] fires right after each
    [Controller.push], when the controller's flow record already shows
    the new version and path; [h_admitted] fires for each churn
    admission. *)
type hooks = {
  h_admitted : flow_id:int -> unit;
  h_pushed : flow_id:int -> version:int -> unit;
}

val no_hooks : hooks

(** [alt_paths g ~src ~dst] is the alternative-path set a flow of the
    workload rotates over: [None] unless at least {e two} distinct
    k-shortest paths exist (a single-path flow would only generate no-op
    updates). *)
val alt_paths : Topo.Graph.t -> src:int -> dst:int -> int list array option

(** [run ?workload ?hooks cfg topo] executes the workload on [topo],
    seeded from [cfg.Run_config.seed].  Deterministic except for the
    wall-clock throughput fields.  Controller preparation is not timed
    here: [bench shard] times {!Control.Plane.prepare_batch} on a world
    it builds itself. *)
val run :
  ?workload:workload -> ?hooks:(World.t -> hooks) -> Run_config.t ->
  Topo.Topologies.t -> result

val pp : Format.formatter -> result -> unit
