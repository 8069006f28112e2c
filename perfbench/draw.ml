(* One benchmark draw: runs ONE draw of one workload in this process and
   prints one JSON object with its raw measurements on stdout.

     draw.exe --workload <name> --seed <n> --draw <i> [--trace 0|1]

   [run.py] starts a fresh process per draw, so process-global state
   (the wire codec switch, the trace clock, [Obs.Metrics.global], the
   flight recorder, the frame pools, [top_heap_words]) never carries
   over from one measurement to the next, and aggregates the draws.

   This program is composed from public functions only (Topo,
   Harness.World, Control.Plane, Dessim.Sim, Netsim, Harness.Traffic,
   Harness.Invariants, plus Scale.alt_paths and the Chaos fault
   distribution) and runs the program as the CLI does by default
   ([Run_config.default]: heap kernel, flight recorder, one controller).
   It never calls Scale.run, Traffic.run_scale or Soak.run (README.md).

   Untraced (--trace 0) it times only the setup steps, the
   [World.run] calls and the auditor drains.  Traced (--trace 1) it also
   records a span around every call it makes into a layer, takes
   [Gc.minor_words] at the same boundaries, and reads the program's own
   [sim/dispatch] and [p4rt/pipeline.process] spans through
   [Obs.Trace.on_event] with the trace clock on host time. *)

module Sim = Dessim.Sim
module World = Harness.World
module Traffic = Harness.Traffic
module Invariants = Harness.Invariants
module Plane = Control.Plane
module C = P4update.Controller
module Graph = Topo.Graph

let now_ns () = Int64.to_float (Dessim.Wallclock.now_ns ())

(* ---- spans: the benchmark's own, plus the program's read back -------- *)

type stat = {
  mutable calls : int;
  mutable ns : float;           (* total duration *)
  mutable self_ns : float;      (* minus every nested span *)
  mutable prog_ns : float;      (* minus nested benchmark spans only *)
  mutable words : float;        (* minor words *)
  mutable prog_words : float;
  mutable samples : float list; (* per-call ns, benchmark spans only *)
}

type frame = {
  fr_stat : stat;
  fr_bench : bool;             (* opened by the benchmark, not the program *)
  fr_t0 : float;
  fr_w0 : float;
  mutable fr_child_ns : float;
  mutable fr_bench_ns : float; (* outermost nested benchmark spans *)
  mutable fr_bench_words : float;
}

let traced = ref false
let stats : (string, stat) Hashtbl.t = Hashtbl.create 64
let stack : frame list ref = ref []

let stat name =
  match Hashtbl.find_opt stats name with
  | Some s -> s
  | None ->
    let s =
      { calls = 0; ns = 0.0; self_ns = 0.0; prog_ns = 0.0; words = 0.0;
        prog_words = 0.0; samples = [] }
    in
    Hashtbl.add stats name s;
    s

let open_frame ~bench st t0 =
  stack :=
    { fr_stat = st; fr_bench = bench; fr_t0 = t0; fr_w0 = Gc.minor_words ();
      fr_child_ns = 0.0; fr_bench_ns = 0.0;
      fr_bench_words = 0.0 }
    :: !stack

let close_frame t1 =
  match !stack with
  | [] -> ()
  | fr :: rest -> (
    stack := rest;
    let dur = t1 -. fr.fr_t0 and words = Gc.minor_words () -. fr.fr_w0 in
    let s = fr.fr_stat in
    s.calls <- s.calls + 1;
    s.ns <- s.ns +. dur;
    s.words <- s.words +. words;
    s.self_ns <- s.self_ns +. dur -. fr.fr_child_ns;
    s.prog_ns <- s.prog_ns +. dur -. fr.fr_bench_ns;
    s.prog_words <- s.prog_words +. words -. fr.fr_bench_words;
    if fr.fr_bench then s.samples <- dur :: s.samples;
    match rest with
    | [] -> ()
    | p :: _ ->
      p.fr_child_ns <- p.fr_child_ns +. dur;
      if fr.fr_bench then begin
        p.fr_bench_ns <- p.fr_bench_ns +. dur;
        p.fr_bench_words <- p.fr_bench_words +. words
      end
      else begin
        p.fr_bench_ns <- p.fr_bench_ns +. fr.fr_bench_ns;
        p.fr_bench_words <- p.fr_bench_words +. fr.fr_bench_words
      end)

(* [span "<layer>.<function>" f] brackets one call into a layer. *)
let span name f =
  if not !traced then f ()
  else begin
    open_frame ~bench:true (stat name) (now_ns ());
    let r = f () in
    close_frame (now_ns ());
    r
  end

(* Host seconds spent in [f] are added to [acc] whether traced or not:
   these are the end-to-end timings. *)
let timed acc name f =
  let t0 = now_ns () in
  let r = span name f in
  acc := !acc +. ((now_ns () -. t0) /. 1e9);
  r

(* Only the two program categories the benchmark reads are recorded; every
   other category is excluded so the sink stays small. *)
let install_trace () =
  let sink =
    Obs.Trace.create
      ~exclude:
        [ "chaos"; "ctl"; "fault"; "mc"; "net"; "recovery"; "switch"; "topo";
          "update"; "verify" ]
      ()
  in
  Obs.Trace.install sink;
  Obs.Trace.on_event (function
    | Obs.Trace.Span_begin { cat; name; ts; _ } ->
      open_frame ~bench:false (stat (cat ^ "." ^ name)) ts
    | Obs.Trace.Span_end { ts; _ } -> close_frame ts
    | Obs.Trace.Instant _ -> ());
  sink

(* ---- one draw ---------------------------------------------------------- *)

(* Update accounting from outside the plane: an update the benchmark pushed
   completes on its success UFM, or is superseded when the benchmark pushes
   a later version of its flow first.  A push the plane makes by itself
   (a §11 reroute or resync) carries the pending update on under its new
   version.  What is still pending at the final drain is retired with its
   flow, aborted (§11 rollback), gave up (an alarm and no success) or
   unresolved. *)
type tally = {
  pending : (int * int, float) Hashtbl.t;  (* (flow, version) -> push time *)
  latest : (int, int) Hashtbl.t;           (* flow -> its pending version *)
  alarmed : (int * int, unit) Hashtbl.t;   (* pending versions that raised an alarm *)
  mutable pushed : int;
  mutable completed : int;
  mutable superseded : int;
  mutable aborted : int;                   (* §11 rollback, give-ups included *)
  mutable samples : float list;            (* completion latencies, sim ms *)
}

type inst = {
  w : World.t;
  tr : Traffic.t;
  mon : Invariants.monitor;
  tally : tally;
  sink : Obs.Trace.sink option;
  run_s : float ref;              (* host seconds inside World.run *)
  drain_s : float ref;            (* host seconds inside the auditor's drains *)
  mutable events : int;
  mutable pending_samples : float list;  (* Sim.pending in benchmark callbacks *)
  mutable prep_per_update : float list;  (* ns per update, one per burst *)
  mutable checks : string list;          (* failed correctness checks *)
  gc0 : Gc.stat;                         (* at the start of the run phase *)
  p4rt0 : int array;
}

let fail inst fmt = Printf.ksprintf (fun s -> inst.checks <- s :: inst.checks) fmt

let sample_pending inst =
  if !traced then
    inst.pending_samples <- float_of_int (Sim.pending inst.w.World.sim) :: inst.pending_samples

(* True while the benchmark itself is inside Plane.push. *)
let pushing = ref false

let track inst =
  let t = inst.tally and plane = inst.w.World.plane in
  Plane.on_push plane (fun ~flow_id ~version ->
      match Hashtbl.find_opt t.latest flow_id with
      | Some v when v < version -> (
        match Hashtbl.find_opt t.pending (flow_id, v) with
        | Some at ->
          Hashtbl.remove t.pending (flow_id, v);
          Hashtbl.remove t.latest flow_id;
          if !pushing then begin
            match Plane.aborted_version plane ~flow_id with
            | Some a when a >= v -> t.aborted <- t.aborted + 1
            | _ -> t.superseded <- t.superseded + 1
          end
          else begin
            Hashtbl.replace t.pending (flow_id, version) at;
            Hashtbl.replace t.latest flow_id version
          end
        | None -> ())
      | _ -> ());
  Plane.on_report plane (fun r ->
      sample_pending inst;
      let key = (r.C.r_flow, r.C.r_version) in
      match Hashtbl.find_opt t.pending key with
      | Some at when r.C.r_status = P4update.Wire.ufm_success ->
        Hashtbl.remove t.pending key;
        t.completed <- t.completed + 1;
        t.samples <- (r.C.r_time -. at) :: t.samples
      | Some _ -> Hashtbl.replace t.alarmed key ()
      | None -> ())

(* Prepare a burst in one batch and push every update of it. *)
let update inst requests =
  let t = inst.tally and plane = inst.w.World.plane in
  let t0 = now_ns () in
  let prepared = span "control.prepare_batch" (fun () -> Plane.prepare_batch plane requests) in
  if !traced && requests <> [] then
    inst.prep_per_update <-
      ((now_ns () -. t0) /. float_of_int (List.length requests)) :: inst.prep_per_update;
  List.iter
    (fun (p : C.prepared) ->
      pushing := true;
      span "control.push" (fun () -> Plane.push plane p);
      pushing := false;
      Hashtbl.replace t.pending (p.C.p_flow, p.C.p_version) (Sim.now inst.w.World.sim);
      Hashtbl.replace t.latest p.C.p_flow p.C.p_version;
      t.pushed <- t.pushed + 1)
    prepared

let check inst =
  span "harness.invariants.check_structural" (fun () ->
      Invariants.check_structural inst.mon (World.flows inst.w))

(* One timed World.run slice.  Slice ends are quiet points for the
   benchmark; in traced mode the trace sink is emptied there (every event
   is already folded into [stats]) to bound memory. *)
let run_until inst until =
  let n = timed inst.run_s "harness.world.run" (fun () -> World.run ~until inst.w) in
  inst.events <- inst.events + n;
  Option.iter Obs.Trace.clear inst.sink

let drain ?excuse inst =
  timed inst.drain_s "harness.traffic.drain" (fun () -> Traffic.drain ?excuse inst.tr)

(* ---- seeded inputs --------------------------------------------------- *)

(* Every input of a draw comes from one RNG seeded by (--seed, --draw,
   workload); the simulation RNG gets its own seed derived from them. *)
let input_rng ~seed ~draw salt = Random.State.make [| seed; draw; salt |]
let sim_seed ~seed ~draw salt = Hashtbl.hash (seed, draw, salt)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let shuffled_pairs rng n =
  let a =
    Array.of_list
      (List.concat_map
         (fun s -> List.filter_map (fun d -> if s <> d then Some (s, d) else None)
                     (List.init n Fun.id))
         (List.init n Fun.id))
  in
  shuffle rng a;
  Array.to_list a

(* Poisson arrival instants from [start], one per element of [picks]. *)
let arrivals rng ~start ~mean picks =
  let t = ref start in
  List.map
    (fun p ->
      t := !t -. (mean *. log (1.0 -. Random.State.float rng 1.0));
      (!t, p))
    picks

let flow_id_of (s, d) =
  Topo.Traffic.flow_id_of_pair ~src:s ~dst:d land (P4update.Wire.flow_space - 1)

(* ---- setup (timed) ---------------------------------------------------- *)

let cfg = Harness.Run_config.default

(* The first [count] pairs of the seeded order whose flow ids are
   distinct and which have at least two alternative paths. *)
let pick_flows setup_s g pairs ~count =
  let used = Hashtbl.create 256 in
  let rec go acc k = function
    | _ when k = count -> List.rev acc
    | [] -> failwith "not enough pairs with alternative paths"
    | ((s, d) as pair) :: rest -> (
      if Hashtbl.mem used (flow_id_of pair) then go acc k rest
      else
        match timed setup_s "topo.paths" (fun () -> Harness.Scale.alt_paths g ~src:s ~dst:d) with
        | Some paths ->
          Hashtbl.add used (flow_id_of pair) ();
          go ((s, d, paths) :: acc) (k + 1) rest
        | None -> go acc k rest)
  in
  go [] 0 pairs

let make_world setup_s ~seed topo =
  let w =
    timed setup_s "harness.world.make" (fun () ->
        World.make ~seed ~kernel:cfg.Harness.Run_config.kernel
          ~shards:cfg.Harness.Run_config.shards topo)
  in
  (* The program's spans are timed on host time from here on. *)
  Obs.Trace.set_clock now_ns;
  w

let install setup_s w (src, dst, size, path) =
  timed setup_s "harness.world.install_flow" (fun () ->
      World.install_flow w ~src ~dst ~size ~path)

let p4rt_counts () =
  let g = Obs.Metrics.global in
  [| Obs.Metrics.get_count g "p4rt.register.read";
     Obs.Metrics.get_count g "p4rt.register.write";
     Obs.Metrics.get_count g "p4rt.parser.errors" |]

(* Attach the auditor (the last setup step) and start the run phase. *)
let finish_setup setup_s ?sink w ~probe_gap_ms ~stop_ms =
  let tr =
    timed setup_s "harness.traffic.attach" (fun () ->
        Traffic.attach
          ~workload:
            { Traffic.default_workload with
              Traffic.tw_mean_gap_ms = probe_gap_ms; tw_stop_ms = stop_ms }
          w)
  in
  let inst =
    { w; tr; mon = Invariants.create w; sink; run_s = ref 0.0; drain_s = ref 0.0;
      tally =
        { pending = Hashtbl.create 1024; latest = Hashtbl.create 256;
          alarmed = Hashtbl.create 64; pushed = 0; completed = 0; superseded = 0;
          aborted = 0; samples = [] };
      events = 0; pending_samples = []; prep_per_update = []; checks = [];
      gc0 = Gc.quick_stat (); p4rt0 = p4rt_counts () }
  in
  track inst;
  inst

(* Rotate slot [i] onto its next alternative path. *)
let rotate slots i =
  let flow_id, paths, cur = slots.(i) in
  cur := (!cur + 1) mod Array.length paths;
  (flow_id, paths.(!cur))

(* ---- scale-attmpls ---------------------------------------------------- *)

(* Control-heavy: 200 size-1 flows on AttMpls rotate over their
   alternative paths in Poisson bursts of 8 distinct flows, offered well
   under the modelled controller's capacity (8 per 50 ms, about 160
   updates/s against about 740/s).  A sparse audit stream (one probe per
   flow per simulated second) rides along, so the probe metrics and the
   per-packet audit exist here too while forwarding stays a small share
   of the work. *)
module Scale_wl = struct
  let flows = 200
  let burst = 8
  let arrival_mean_ms = 50.0
  let bursts = 750
  let probe_gap_ms = 1000.0
  let slice_ms = 2000.0
  let check_every = 25

  let run ?sink ~seed ~draw setup_s =
    let rng = input_rng ~seed ~draw 1 in
    let topo = timed setup_s "topo.build" Topo.Topologies.attmpls in
    let g = topo.Topo.Topologies.graph in
    let pairs = shuffled_pairs rng (Graph.node_count g) in
    let picks =
      List.init bursts (fun _ ->
          let slots = Array.init flows Fun.id in
          shuffle rng slots;
          Array.to_list (Array.sub slots 0 burst))
    in
    let schedule = Array.of_list (arrivals rng ~start:0.0 ~mean:arrival_mean_ms picks) in
    let stop_ms = fst schedule.(bursts - 1) in
    let chosen = pick_flows setup_s g pairs ~count:flows in
    let w = make_world setup_s ~seed:(sim_seed ~seed ~draw 1) topo in
    let slots =
      Array.of_list
        (List.map
           (fun (src, dst, paths) ->
             ((install setup_s w (src, dst, 1, paths.(0))).C.flow_id, paths, ref 0))
           chosen)
    in
    let inst = finish_setup setup_s ?sink w ~probe_gap_ms ~stop_ms in
    Traffic.start inst.tr;
    let sim = w.World.sim in
    let rec arrival k () =
      span "bench.burst" (fun () ->
          sample_pending inst;
          update inst (List.map (rotate slots) (snd schedule.(k)));
          if (k + 1) mod check_every = 0 then check inst;
          if k + 1 < bursts then
            Sim.schedule_at sim ~time:(fst schedule.(k + 1)) (arrival (k + 1)))
    in
    Sim.schedule_at sim ~time:(fst schedule.(0)) (arrival 0);
    (* Probes are in flight at every slice end, so the auditor drains
       once, after the plane is quiet. *)
    let t = ref slice_ms in
    while !t < stop_ms do
      run_until inst !t;
      t := !t +. slice_ms
    done;
    run_until inst (stop_ms +. 60_000.0);
    drain inst;
    inst
end

(* ---- soak-b4 ------------------------------------------------------------ *)

(* Data plane under faults, shaped like Soak.default_config: probes race
   rotating updates on B4 while control-typed frames are faulted in a
   window at the start of every cycle, elements fail and come back, flows
   churn (retired and replaced by never-used pairs), and the §11 ladder
   (deadline aborts, switch watchdogs) runs.  The auditor drains at the
   quiet end of every cycle.  The population covers most B4 pairs, so a
   draw's probe latencies do not hinge on which pairs it drew.  Element
   failures are links only: node restarts trip a known plane defect
   (README.md, "Known defect"), which the soak monitor still exercises. *)
module Soak_wl = struct
  let cycles = 2
  let cycle_ms = 6000.0
  let population = 100
  let updates_per_cycle = 200
  let burst = 4
  let arrival_mean_ms = 100.0
  let churn_per_cycle = 2
  let control_fault_prob = 0.05
  let fault_window_ms = 2500.0
  let element_failures = 2
  let probe_gap_ms = 25.0
  let probe_window_ms = 4000.0
  let deadline_ms = 1500.0
  let settle_tail_ms = 8000.0

  type failure = { u : int; v : int; down : float; up : float }

  let run ?sink ~seed ~draw setup_s =
    let rng = input_rng ~seed ~draw 2 in
    let topo = timed setup_s "topo.build" Topo.Topologies.b4 in
    let g = topo.Topo.Topologies.graph in
    let n = Graph.node_count g in
    let pairs = shuffled_pairs rng n in
    let edges = Array.of_list (Graph.edges g) in
    let failures =
      List.init cycles (fun k ->
          let start = float_of_int k *. cycle_ms in
          List.init (Random.State.int rng (element_failures + 1)) (fun _ ->
              let down = start +. 200.0 +. Random.State.float rng (fault_window_ms -. 1500.0) in
              let up = down +. 300.0 +. Random.State.float rng 700.0 in
              let e = edges.(Random.State.int rng (Array.length edges)) in
              { u = e.Graph.u; v = e.Graph.v; down; up }))
      |> List.concat
    in
    let churns =
      List.init (cycles * churn_per_cycle) (fun j ->
          let start = float_of_int (j / churn_per_cycle) *. cycle_ms in
          (start +. Random.State.float rng (cycle_ms *. 0.6), Random.State.int rng population))
    in
    (* Slots come from a shuffle bag (a fresh permutation of the
       population every [population / burst] bursts), so each flow is
       updated about once per bag and few updates are superseded. *)
    let bursts =
      List.init cycles (fun k ->
          let picks =
            List.init (updates_per_cycle / population) (fun _ ->
                let bag = Array.init population Fun.id in
                shuffle rng bag;
                List.init (population / burst) (fun b -> Array.to_list (Array.sub bag (b * burst) burst)))
            |> List.concat
          in
          arrivals rng ~start:(float_of_int k *. cycle_ms) ~mean:arrival_mean_ms picks)
      |> List.concat
    in
    (* Never-reused pairs: the population plus every churn admission. *)
    let fresh = pick_flows setup_s g pairs ~count:(population + (cycles * churn_per_cycle)) in
    let w = make_world setup_s ~seed:(sim_seed ~seed ~draw 2) topo in
    (* Churn admissions happen in the run phase: their time is not setup. *)
    let install_slot acc (src, dst, paths) =
      ((install acc w (src, dst, 1, paths.(0))).C.flow_id, paths, ref 0)
    in
    let slots =
      Array.of_list
        (List.map (install_slot setup_s) (List.filteri (fun i _ -> i < population) fresh))
    in
    let spare = ref (List.filteri (fun i _ -> i >= population) fresh) in
    let inst = finish_setup setup_s ?sink w ~probe_gap_ms ~stop_ms:0.0 in
    let sim = w.World.sim and net = w.World.net in
    Array.iter
      (fun sw ->
        P4update.Switch.enable_watchdog sw ~timeout_ms:Harness.Run_config.default_watchdog_ms)
      w.World.switches;
    Plane.enable_recovery ~deadline_ms w.World.plane;
    (* Control-typed frames only, inside the window: a probe is never
       faulted directly, so every probe violation indicts the plane. *)
    let fault_until = ref 0.0 in
    let verdict () =
      if Sim.uniform sim ~bound:1.0 < control_fault_prob then
        Harness.Chaos.draw_verdict sim ~downgrade_corrupt:true
      else Netsim.Deliver
    in
    Netsim.set_data_fault net (fun ~from:_ ~to_:_ bytes ->
        if Sim.now sim < !fault_until && Harness.Chaos.is_control_frame bytes then verdict ()
        else Netsim.Deliver);
    Netsim.set_control_fault net (fun ~dir:_ _ ->
        if Sim.now sim < !fault_until then verdict () else Netsim.Deliver);
    (* Flow-agnostic blackhole excuse while a link is down, plus the soak
       monitor's 250 ms for probes in flight when it fails.  No grace
       after the restore: a restored link forwards at once, and the soak
       monitor's repair grace exists for restarted nodes, which this
       workload does not fail. *)
    let excuse _ ~injected_at =
      List.exists (fun f -> injected_at >= f.down -. 250.0 && injected_at <= f.up) failures
    in
    List.iter
      (fun f ->
        Netsim.fail_link net ~u:f.u ~v:f.v ~at:f.down;
        Netsim.restore_link net ~u:f.u ~v:f.v ~at:f.up)
      failures;
    for k = 0 to cycles - 1 do
      let start = float_of_int k *. cycle_ms in
      Sim.schedule_at sim ~time:start (fun () ->
          fault_until := start +. fault_window_ms;
          Traffic.inject_until inst.tr ~stop_ms:(start +. probe_window_ms))
    done;
    List.iter
      (fun (at, i) ->
        Sim.schedule_at sim ~time:at (fun () ->
            span "bench.churn" (fun () ->
                match !spare with
                | [] -> ()
                | next :: rest ->
                  spare := rest;
                  let flow_id, _, _ = slots.(i) in
                  span "control.retire_flow" (fun () -> Plane.retire_flow w.World.plane ~flow_id);
                  slots.(i) <- install_slot (ref 0.0) next;
                  let flow_id, _, _ = slots.(i) in
                  Traffic.note_admitted inst.tr ~flow_id)))
      churns;
    List.iter
      (fun (at, picks) ->
        Sim.schedule_at sim ~time:at (fun () ->
            span "bench.burst" (fun () ->
                sample_pending inst;
                update inst (List.map (rotate slots) picks))))
      bursts;
    for k = 1 to cycles do
      run_until inst ((float_of_int k *. cycle_ms) -. 0.5);
      drain ~excuse inst;
      check inst
    done;
    run_until inst ((float_of_int cycles *. cycle_ms) +. settle_tail_ms);
    drain ~excuse inst;
    inst
end

(* ---- results ------------------------------------------------------------ *)

let hash_combine h x = ((h * 1000003) lxor x) land 0x3FFFFFFF

let micros l = List.sort compare (List.map (fun x -> int_of_float ((x *. 1000.0) +. 0.5)) l)

(* Event count, plane fingerprint, the auditor's packet digest and the
   sorted completion samples: equal across runs of one draw, traced or
   not. *)
let sim_digest inst (ts : Traffic.summary) =
  List.fold_left hash_combine 0x1505
    (inst.events :: Plane.fingerprint inst.w.World.plane :: ts.Traffic.ts_digest
     :: micros inst.tally.samples)

let sum_switches w f =
  Array.fold_left (fun acc sw -> acc + f (P4update.Switch.stats sw)) 0 w.World.switches

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"
let json_list f l = "[" ^ String.concat "," (List.map f l) ^ "]"

let usage () =
  prerr_endline "usage: draw.exe --workload <name> --seed <n> --draw <i> [--trace 0|1]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and draw = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--draw" :: v :: rest -> draw := int_of_string_opt v; parse rest
    | "--trace" :: v :: rest -> traced := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, draw = match (!seed, !draw) with Some s, Some d -> (s, d) | _ -> usage () in
  let run =
    match !workload with
    | "scale-attmpls" -> Scale_wl.run
    | "soak-b4" -> Soak_wl.run
    | _ -> usage ()
  in
  let sink = if !traced then Some (install_trace ()) else None in
  Harness.Observe.with_recorder cfg @@ fun recorder ->
  let setup_s = ref 0.0 in
  let inst = span ("bench." ^ !workload) (fun () -> run ?sink ~seed ~draw setup_s) in
  let w = inst.w and t = inst.tally in
  let ts = timed inst.drain_s "harness.traffic.finalize" (fun () -> Traffic.finalize inst.tr) in
  check inst;
  let gc1 = Gc.quick_stat () and p4rt1 = p4rt_counts () in
  let retired = ref 0 and gave_up = ref 0 and unresolved = ref 0 in
  Hashtbl.iter
    (fun (flow_id, version) _ ->
      match Plane.find_flow w.World.plane ~flow_id with
      | None -> incr retired
      | Some _ -> (
        match Plane.aborted_version w.World.plane ~flow_id with
        | Some v when v >= version -> t.aborted <- t.aborted + 1
        | _ when Hashtbl.mem t.alarmed (flow_id, version) -> incr gave_up
        | _ -> incr unresolved))
    t.pending;
  List.iter
    (fun v -> fail inst "invariant violated: %s" (Invariants.violation_to_string v))
    (Invariants.violations inst.mon);
  if Traffic.violations ts > 0 then
    fail inst "audit: %d mixed, %d loops, %d blackholes" ts.Traffic.ts_mixed
      ts.Traffic.ts_loops ts.Traffic.ts_blackholes;
  if !unresolved > 0 then fail inst "%d updates unresolved at drain" !unresolved;
  let probe_latencies =
    match Obs.Metrics.get (Netsim.metrics w.World.net) "traffic.latency_ms" with
    | Some (Obs.Metrics.Histogram h) when Obs.Metrics.hcount h = List.length (Obs.Metrics.samples h) ->
      Obs.Metrics.samples h
    | _ -> failwith "probe latency samples not retained"
  in
  let nc = Netsim.counters w.World.net in
  let rc =
    Option.value (Plane.recovery_stats w.World.plane)
      ~default:{ C.retransmissions = 0; reroutes = 0; resyncs = 0; aborts = 0; give_ups = 0 }
  in
  let count x = json_num (float_of_int x) in
  let switch name f = (name, count (sum_switches w f)) in
  let counts =
    [ ("events", count inst.events);
      ("pushed", count t.pushed);
      ("completed", count t.completed);
      ("superseded", count t.superseded);
      ("retired", count !retired);
      ("aborted", count t.aborted);
      ("gave_up", count !gave_up);
      ("unresolved", count !unresolved);
      ("probes", count ts.Traffic.ts_injected);
      ("probe_new_path", count ts.Traffic.ts_new_path);
      ("probe_violations", count (Traffic.violations ts));
      ("probe_excused", count ts.Traffic.ts_excused);
      ("netsim.data", count nc.Netsim.data_packets);
      ("netsim.ctl_down", count nc.Netsim.control_to_switch);
      ("netsim.ctl_up", count nc.Netsim.control_to_controller);
      ("netsim.resubmissions", count nc.Netsim.resubmissions);
      ("netsim.fault_drops", count nc.Netsim.dropped_by_fault);
      ("p4rt.register_reads", count (p4rt1.(0) - inst.p4rt0.(0)));
      ("p4rt.register_writes", count (p4rt1.(1) - inst.p4rt0.(1)));
      ("p4rt.parse_errors", count (p4rt1.(2) - inst.p4rt0.(2)));
      switch "switch.forwarded" (fun s -> s.P4update.Switch.forwarded);
      switch "switch.commits" (fun s -> s.P4update.Switch.commits);
      switch "switch.waits" (fun s -> s.P4update.Switch.waits);
      switch "switch.congestion_defers" (fun s -> s.P4update.Switch.congestion_defers);
      switch "switch.alarms" (fun s -> s.P4update.Switch.alarms);
      switch "switch.withdrawals" (fun s -> s.P4update.Switch.withdrawals);
      ("recovery.retransmissions", count rc.C.retransmissions);
      ("recovery.reroutes", count rc.C.reroutes);
      ("recovery.resyncs", count rc.C.resyncs);
      ("recovery.aborts", count rc.C.aborts);
      ("recovery.give_ups", count rc.C.give_ups);
      ("obs.recorder_notes",
       count (match recorder with Some r -> Obs.Flight_recorder.total r | None -> 0));
      ("gc.minor_collections", count (gc1.Gc.minor_collections - inst.gc0.Gc.minor_collections));
      ("gc.major_collections", count (gc1.Gc.major_collections - inst.gc0.Gc.major_collections));
      ("gc.promoted_words", json_num (gc1.Gc.promoted_words -. inst.gc0.Gc.promoted_words)) ]
  in
  let timings =
    [ ("setup_s", json_num !setup_s);
      ("run_s", json_num !(inst.run_s));
      ("drain_s", json_num !(inst.drain_s));
      ("peak_heap_mb", json_num (float_of_int gc1.Gc.top_heap_words *. 8.0 /. 1048576.0)) ]
  in
  let spans =
    Hashtbl.fold
      (fun name s acc ->
        ( name,
          json_obj
            [ ("calls", count s.calls); ("ns", json_num s.ns); ("self_ns", json_num s.self_ns);
              ("prog_ns", json_num s.prog_ns); ("words", json_num s.words);
              ("prog_words", json_num s.prog_words);
              ("samples_ns", json_list json_num (List.rev s.samples)) ] )
        :: acc)
      stats []
  in
  let ints l = json_list string_of_int l in
  print_endline
    (json_obj
       [ ("workload", Printf.sprintf "%S" !workload);
         ("seed", count seed);
         ("draw", count draw);
         ("digest", Printf.sprintf "\"%08x\"" (sim_digest inst ts));
         ("checks", json_list (Printf.sprintf "%S") (List.rev inst.checks));
         ("counts", json_obj counts);
         ("timings", json_obj timings);
         ("update_us", ints (micros t.samples));
         ("probe_us", ints (micros probe_latencies));
         ("spans", json_obj spans);
         ("pending", json_list json_num inst.pending_samples);
         ("prep_ns_per_update", json_list json_num inst.prep_per_update) ])
