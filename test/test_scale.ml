(* Scale-engine and event-kernel tests.

   - Differential qcheck properties: the flat structure-of-arrays
     [Event_heap] and the [Calendar_queue] kernel, each against the
     seed's boxed heap, kept verbatim as [Event_heap_ref]: same pop
     order on random schedules (including exact same-instant ties),
     same [fold] candidate sets, same [remove_seq] behavior, with
     mid-schedule [compact] observably transparent.
   - Wire codec equivalence: the pooled direct-store control and data
     codecs emit byte-identical frames to the boxed Packet path and
     return identical decode verdicts on arbitrary byte strings; the
     header byte layout matches the bit loops; encode + release
     allocates nothing in steady state.
   - The switch's forwarding path: the frame a switch forwards is the
     boxed Packet.update + serialize image; pooled frames are never
     reused while a delivery of them is in flight; the minor words per
     forwarded hop are pinned.
   - Determinism pins: the chaos delivery hashes, the mc final-state
     fingerprints on the default schedule and a trace JSONL digest are
     pinned to literals, so any change to event ordering — however
     subtle — fails here rather than silently shifting every figure.
   - The scale engine itself: completes, is deterministic, and the
     sampled Thm. 1-4 probes see no violations.
   - Run_config glue: the default fault plan translates to exactly
     [Chaos.default_config]. *)

module Heap = Dessim.Event_heap
module Heap_ref = Dessim.Event_heap_ref
module Cal = Dessim.Calendar_queue
module W = P4update.Wire

(* --- differential queue properties ---------------------------------- *)

(* Both kernel-facing queues expose the same surface; the differential
   oracle below runs each against the seed's boxed heap. *)
module type QUEUE = sig
  type 'a t

  val create : unit -> 'a t
  val push : ?tag:Heap.tag -> 'a t -> time:float -> 'a -> unit
  val pop : 'a t -> (float * 'a) option
  val size : 'a t -> int
  val compact : 'a t -> unit

  val fold :
    'a t -> init:'acc -> f:('acc -> time:float -> seq:int -> tag:Heap.tag option -> 'acc) -> 'acc

  val remove_seq : 'a t -> int -> (float * Heap.tag option * 'a) option
end

(* A schedule mixing pushes (with deliberately colliding times drawn
   from a small grid), pops and occasional tag attachments. *)
let op_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 400)
      (pair (int_bound 2) (pair (int_bound 15) (int_bound 7))))

let tag_of_int i =
  { Heap.tag_kind = "k" ^ string_of_int (i mod 3); tag_node = i; tag_flow = i * 7;
    tag_hash = i * 31 }

(* Drive the candidate queue and the boxed oracle through the same
   schedule; compare every observable.  Every 64th op compacts the
   candidate (the oracle is untouched): compaction must be observably
   transparent. *)
let run_schedule_against (module Q : QUEUE) ops =
  let h = Q.create () and r = Heap_ref.create () in
  let payload = ref 0 in
  let opno = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  List.iter
    (fun (op, (t, tagged)) ->
      incr opno;
      if !opno land 63 = 0 then Q.compact h;
      match op with
      | 0 | 1 ->
        (* push; time grid of 16 values forces same-instant ties *)
        let time = float_of_int t /. 2.0 in
        let p = !payload in
        incr payload;
        let tag = if tagged = 0 then Some (tag_of_int p) else None in
        Q.push ?tag h ~time p;
        Heap_ref.push ?tag r ~time p
      | _ -> (
        match (Q.pop h, Heap_ref.pop r) with
        | None, None -> ()
        | Some (t1, p1), Some (t2, p2) -> check (t1 = t2 && p1 = p2)
        | _ -> check false))
    ops;
  (* same sizes, same candidate sets under fold, same drain order *)
  check (Q.size h = Heap_ref.size r);
  let entry ~time ~seq ~tag = (seq, time, tag) in
  let flat_set =
    List.sort compare
      (Q.fold h ~init:[] ~f:(fun acc ~time ~seq ~tag -> entry ~time ~seq ~tag :: acc))
  and ref_set =
    List.sort compare
      (Heap_ref.fold r ~init:[] ~f:(fun acc ~time ~seq ~tag -> entry ~time ~seq ~tag :: acc))
  in
  check (flat_set = ref_set);
  let rec drain () =
    match (Q.pop h, Heap_ref.pop r) with
    | None, None -> ()
    | Some (t1, p1), Some (t2, p2) ->
      check (t1 = t2 && p1 = p2);
      drain ()
    | _ -> check false
  in
  drain ();
  !ok

let prop_same_pop_order =
  QCheck.Test.make ~name:"flat heap = boxed heap on random schedules" ~count:300 op_gen
    (run_schedule_against (module Heap))

let prop_calendar_pop_order =
  QCheck.Test.make ~name:"calendar queue = boxed heap on random schedules" ~count:300 op_gen
    (run_schedule_against (module Cal))

let remove_seq_matches (module Q : QUEUE) (ops, victim) =
  let h = Q.create () and r = Heap_ref.create () in
  let payload = ref 0 in
  List.iter
    (fun (op, (t, tagged)) ->
      if op <= 1 then begin
        let time = float_of_int t /. 2.0 in
        let p = !payload in
        incr payload;
        let tag = if tagged = 0 then Some (tag_of_int p) else None in
        Q.push ?tag h ~time p;
        Heap_ref.push ?tag r ~time p
      end
      else begin
        ignore (Q.pop h);
        ignore (Heap_ref.pop r)
      end)
    ops;
  (* both queues allocate seqs identically (same push count), so the
     same victim seq must exist in both or in neither *)
  let a = Q.remove_seq h victim and b = Heap_ref.remove_seq r victim in
  if a <> b then false
  else begin
    let rec drain () =
      match (Q.pop h, Heap_ref.pop r) with
      | None, None -> true
      | Some (t1, p1), Some (t2, p2) -> t1 = t2 && p1 = p2 && drain ()
      | _ -> false
    in
    drain ()
  end

let prop_remove_seq =
  QCheck.Test.make ~name:"flat heap remove_seq matches boxed heap" ~count:300
    QCheck.(pair op_gen (int_bound 1000))
    (remove_seq_matches (module Heap))

let prop_calendar_remove_seq =
  QCheck.Test.make ~name:"calendar remove_seq matches boxed heap" ~count:300
    QCheck.(pair op_gen (int_bound 1000))
    (remove_seq_matches (module Cal))

(* --- wire codec equivalence ------------------------------------------ *)

(* Random well-formed records from an LCG seed (field bounds match the
   schema widths, all 8/16/32-bit). *)
let field_drawer seed =
  let s = ref seed in
  fun m ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod m

let control_of_seed seed =
  let nxt = field_drawer seed in
  let kinds = [| W.Frm; W.Uim; W.Unm; W.Ufm; W.Cln; W.Wdm |] in
  { W.kind = kinds.(nxt 6); flow_id = nxt 0x10000; version_new = nxt 0x10000;
    version_old = nxt 0x10000; dist_new = nxt 0x10000; dist_old = nxt 0x10000;
    update_type = (if nxt 2 = 0 then W.Sl else W.Dl); layer = nxt 0x100;
    counter = nxt 0x10000; flow_size = nxt 0x10000; egress_port = nxt 0x100;
    notify_port = nxt 0x100; role = nxt 0x100; src_node = nxt 0x10000 }

let data_of_seed seed =
  let nxt = field_drawer seed in
  { W.d_flow_id = nxt 0x10000; seq = nxt 0x40000000; ttl = nxt 0x100;
    origin = nxt 0x100; dst = nxt 0x10000; tag = nxt 0x10000; d_ts = nxt 0x40000000 }

let prop_control_codec_equiv =
  QCheck.Test.make ~name:"fast control codec = boxed codec" ~count:500
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let c = control_of_seed seed in
      let boxed = W.control_to_bytes_boxed c in
      let fast = W.control_to_bytes c in
      let same_bytes = Bytes.equal boxed fast in
      let dec_fast = W.control_of_bytes fast in
      let kind_fast = W.control_kind_of_bytes fast in
      Netsim.release_frame fast;
      let dec_ref = Option.bind (W.packet_of_bytes boxed) W.control_of_packet in
      same_bytes && dec_fast = Some c && dec_ref = Some c
      && kind_fast = Some (W.msg_kind_to_int c.W.kind))

let prop_data_codec_equiv =
  QCheck.Test.make ~name:"fast data codec = boxed codec" ~count:500
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let d = data_of_seed seed in
      let boxed = W.data_to_bytes_boxed d in
      let fast = W.data_to_bytes d in
      let same_bytes = Bytes.equal boxed fast in
      let dec_fast = W.data_of_bytes fast in
      Netsim.release_frame fast;
      let dec_ref = Option.bind (W.packet_of_bytes boxed) W.data_of_packet in
      same_bytes && dec_fast = Some d && dec_ref = Some d)

let prop_decode_equiv_random_bytes =
  (* On arbitrary byte strings (short frames, foreign etypes, invalid
     enum fields) the fast decoders must return the exact verdict of the
     parse-graph path. *)
  QCheck.Test.make ~name:"fast decode verdicts = parser verdicts on random frames"
    ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 40) Gen.char)
    (fun s ->
      let b = Bytes.of_string s in
      let fc = W.control_of_bytes b and fd = W.data_of_bytes b in
      let fk = W.control_kind_of_bytes b in
      let pkt = W.packet_of_bytes b in
      let rc = Option.bind pkt W.control_of_packet and rd = Option.bind pkt W.data_of_packet in
      let rk = Option.map (fun c -> W.msg_kind_to_int c.W.kind) rc in
      fc = rc && fd = rd && fk = rk)

(* [Header.emit]/[extract] write byte-aligned schemas (eth/p4u/data)
   with per-byte stores; the bit loops only run for sub-byte schemas.  A
   twin schema that splits every field into (w - 4, 4) bits has the same
   wire image but forces the bit loops, so the two paths can be compared
   on random field values. *)
let split_twin schema =
  P4rt.Header.define
    ~name:(P4rt.Header.schema_name schema ^ "-bits")
    (List.concat_map
       (fun (f, w) -> [ (f ^ ".hi", w - 4); (f ^ ".lo", 4) ])
       (P4rt.Header.fields schema))

let prop_header_bytes_equal_bits =
  let module H = P4rt.Header in
  let schemas = [| W.eth_schema; W.p4u_schema; W.data_schema |] in
  let twins = Array.map split_twin schemas in
  QCheck.Test.make ~name:"header byte layout = bit loops (eth/p4u/data)" ~count:500
    QCheck.(pair (int_bound 2) (int_bound 0x3FFFFFFF))
    (fun (k, seed) ->
      let schema = schemas.(k) and twin = twins.(k) in
      let nxt = field_drawer seed in
      let inst, twin_inst =
        List.fold_left
          (fun (h, t) (f, w) ->
            (* [field_drawer] yields 30 bits; two draws cover 32-bit fields. *)
            let v = ((nxt 0x10000 lsl 16) lor nxt 0x10000) land ((1 lsl w) - 1) in
            (H.set h f v, H.set (H.set t (f ^ ".hi") (v lsr 4)) (f ^ ".lo") (v land 0xf)))
          (H.make schema, H.make twin) (H.fields schema)
      in
      let size = H.byte_size schema in
      let by_bytes = Bytes.make size '\000' and by_bits = Bytes.make size '\000' in
      ignore (H.emit inst by_bytes 0);
      ignore (H.emit twin_inst by_bits 0);
      let back, _ = H.extract schema by_bits 0 in
      let twin_back, _ = H.extract twin by_bytes 0 in
      Bytes.equal by_bytes by_bits
      && List.for_all
           (fun (f, _) ->
             H.get back f = H.get inst f
             && (H.get twin_back (f ^ ".hi") lsl 4) lor H.get twin_back (f ^ ".lo")
                = H.get inst f)
           (H.fields schema))

(* The pooled codec's zero-alloc claim: after warm-up (the pool holds a
   frame and its stack is sized), encode + release allocates nothing. *)
let minor_words_per_op ~ops f =
  for _ = 1 to 1_000 do f () done;
  let before = Gc.minor_words () in
  for _ = 1 to ops do f () done;
  (Gc.minor_words () -. before) /. float_of_int ops

let test_codec_zero_alloc () =
  let ops = 20_000 in
  let c = control_of_seed 17 and d = data_of_seed 17 in
  let control_words =
    minor_words_per_op ~ops (fun () -> Netsim.release_frame (W.control_to_bytes c))
  in
  let data_words =
    minor_words_per_op ~ops (fun () -> Netsim.release_frame (W.data_to_bytes d))
  in
  Alcotest.(check bool)
    (Printf.sprintf "control encode+release %.4f words/frame < 1" control_words)
    true (control_words < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "data encode+release %.4f words/frame < 1" data_words)
    true (data_words < 1.0)

(* --- the switch's forwarding path ----------------------------------- *)

module Sim = Dessim.Sim

let line_net n =
  let g = Topo.Graph.create n in
  for i = 0 to n - 2 do
    Topo.Graph.add_edge g ~u:i ~v:(i + 1) ~latency_ms:1.0 ~capacity:10.0
  done;
  let topo =
    {
      Topo.Topologies.name = "line";
      kind = Topo.Topologies.Synthetic;
      graph = g;
      node_names = Array.init n string_of_int;
      controller = 0;
    }
  in
  let sim = Sim.create () in
  let net = Netsim.create sim topo in
  (sim, net, Array.init n (fun node -> P4update.Switch.create net ~node))

(* Rules for [flow] along [path] (committed version 1, no reservation). *)
let install_path net switches ~flow path =
  let rec go = function
    | [] -> ()
    | [ last ] ->
      P4update.Switch.install_initial switches.(last) ~flow_id:flow ~version:1 ~dist:0
        ~egress_port:W.port_local ~notify_port:W.port_none ~size:0
    | a :: (b :: _ as rest) ->
      P4update.Switch.install_initial switches.(a) ~flow_id:flow ~version:1
        ~dist:(List.length rest)
        ~egress_port:(Netsim.port_of_neighbor net ~node:a ~neighbor:b)
        ~notify_port:W.port_none ~size:0;
      go rest
  in
  go path

let prop_forward_image_equals_boxed =
  (* Switch 1 of a 3-node line forwards a random data frame (0-8 trailing
     payload bytes) toward node 2, arriving either on a link (tag kept)
     or from the host (untagged, so the ingress stamps its tag).  The
     frame node 2 receives must be the boxed path's image. *)
  QCheck.Test.make ~name:"switch forward image = Packet.update + serialize" ~count:300
    QCheck.(triple (int_bound 0x3FFFFFFF) (int_bound 8) bool)
    (fun (seed, extra, from_host) ->
      let nxt = field_drawer (seed + 1) in
      let d = data_of_seed seed in
      let d = { d with W.ttl = 2 + nxt 254; tag = (if from_host then 0 else d.W.tag) } in
      let stamp = nxt 0x10000 in
      let payload = Bytes.init extra (fun _ -> Char.chr (nxt 256)) in
      let frame = Bytes.cat (W.data_to_bytes_boxed d) payload in
      let sim, net, switches = line_net 3 in
      let flow = d.W.d_flow_id land (W.flow_space - 1) in
      install_path net switches ~flow [ 1; 2 ];
      P4update.Uib.set_stamp_tag (P4update.Switch.uib switches.(1)) flow stamp;
      let seen = ref [] in
      Netsim.on_delivery net (fun _ node _ bytes ->
          if node = 2 then seen := Bytes.copy bytes :: !seen);
      if from_host then Netsim.host_inject net ~node:1 frame
      else Netsim.transmit net ~from:0 ~port:0 frame;
      ignore (Sim.run sim);
      let tag = if from_host then stamp else d.W.tag in
      let expected =
        P4rt.Packet.serialize
          (P4rt.Packet.update (P4rt.Parser.run W.parser frame) "data" (fun h ->
               P4rt.Header.set (P4rt.Header.set h "ttl" (d.W.ttl - 1)) "tag" tag))
      in
      match !seen with [ got ] -> Bytes.equal got expected | _ -> false)

(* Duplicate every data hop and delay every copy, so many forwarded
   frames are in flight at once and the pool is churned hard: a frame
   recycled before its last delivery would be overwritten by a later
   probe and arrive as someone else's (flow, seq). *)
let test_recycled_frames_not_reused_in_flight () =
  let sim, net, switches = line_net 4 in
  let flows = [| (11, [ 0; 1; 2; 3 ]); (12, [ 3; 2; 1; 0 ]) |] in
  Array.iter (fun (flow, path) -> install_path net switches ~flow path) flows;
  let rng = Random.State.make [| 7 |] in
  let copy = ref false in
  Netsim.set_data_fault net (fun ~from:_ ~to_:_ _ ->
      (* Calls come in pairs per send: the original (duplicated), then
         its copy (delayed). *)
      copy := not !copy;
      if !copy then Netsim.Duplicate else Netsim.Delay (Random.State.float rng 20.0));
  let probes = 400 in
  let arrivals = Array.make probes 0 and wrong = ref 0 in
  Array.iter
    (fun (flow, path) ->
      let egress = List.nth path 3 in
      P4update.Switch.on_deliver switches.(egress) (fun ~time:_ d ->
          let seq = d.W.seq in
          if seq < probes && fst flows.(seq mod 2) = flow && d.W.d_flow_id = flow
             && d.W.origin = List.hd path && d.W.ttl = 64 - 3
          then arrivals.(seq) <- arrivals.(seq) + 1
          else incr wrong))
    flows;
  for seq = 0 to probes - 1 do
    let flow, path = flows.(seq mod 2) in
    let src = List.hd path in
    let d =
      { W.d_flow_id = flow; seq; ttl = 64; origin = src; dst = List.nth path 3; tag = 0;
        d_ts = 0 }
    in
    Sim.schedule sim ~delay:(0.05 *. float_of_int seq) (fun () ->
        let b = W.data_to_bytes d in
        Netsim.host_inject ~pooled:true net ~node:src b)
  done;
  ignore (Sim.run sim);
  Alcotest.(check int) "no frame arrived as another probe" 0 !wrong;
  (* Three duplicated link hops: 2^3 copies of every probe. *)
  Array.iteri
    (fun seq n -> if n <> 8 then Alcotest.failf "probe %d arrived %d times, expected 8" seq n)
    arrivals

(* Minor words allocated per forwarded data hop: one probe crosses an
   8-node line (7 link hops: decode, copy-and-patch, transmit, deliver)
   and is delivered at the far end; the total is divided by the hops. *)
let words_per_hop () =
  let n = 8 in
  let sim, net, switches = line_net n in
  install_path net switches ~flow:5 (List.init n Fun.id);
  let d = { W.d_flow_id = 5; seq = 0; ttl = 64; origin = 0; dst = n - 1; tag = 0; d_ts = 0 } in
  let probe () =
    P4update.Switch.inject_data switches.(0) d;
    ignore (Sim.run sim)
  in
  minor_words_per_op ~ops:2_000 probe /. float_of_int (n - 1)

let test_hop_allocation_pinned () =
  (* Measured 63.4 words/hop (OCaml 5.1, x86-64), 17 of them in Netsim's
     transmit + delivery (one delivery record plus float boxes); the
     bound leaves 20% headroom. *)
  let w = words_per_hop () in
  Alcotest.(check bool) (Printf.sprintf "%.1f minor words per forwarded hop < 76" w) true
    (w < 76.0)

(* --- determinism pins ----------------------------------------------- *)

(* Chaos delivery hashes: scenario x seed -> r_trace_hash.  These came
   from the seed heap and must survive any kernel change byte-for-byte. *)
let chaos_pins =
  [
    ("fig1", 1, 0x0c4b5288); ("fig1", 2, 0x1a4f97b3); ("fig1", 7, 0x04cfedd3);
    ("b4", 1, 0x3d79d541); ("b4", 2, 0x306bcd89); ("b4", 7, 0x331496eb);
    ("fat-tree", 1, 0x36073a28); ("fat-tree", 2, 0x1ed378c3); ("fat-tree", 7, 0x14937a0a);
  ]

let test_chaos_pins () =
  List.iter
    (fun (name, seed, expected) ->
      let scenario = Option.get (Harness.Chaos.scenario_of_string name) in
      let cfg = Harness.Run_config.make ~seed () in
      let r = Harness.Chaos.run_cfg cfg ~scenario in
      Alcotest.(check int)
        (Printf.sprintf "chaos %s seed %d hash" name seed)
        expected r.Harness.Chaos.r_trace_hash)
    chaos_pins

(* Mc final-state fingerprints on the default (no-reorder) schedule. *)
let mc_pins =
  [
    ("fig2a", 0x6bacad033b797c0f); ("six-skip", 0x281bbbae60df553d);
    ("ruleless-gateway", 0xbe2af20d92b11ab); ("stale-label", 0x58fdeef786755994);
  ]

let mc_fingerprint sc =
  let ctx = sc.Mc.Scenario.sc_build Mc.Scenario.default_cfg in
  let w = ctx.Mc.Scenario.cx_world in
  ignore (Harness.World.run ~until:ctx.Mc.Scenario.cx_horizon_ms w);
  let sw =
    Array.fold_left
      (fun acc s -> (acc * 131) lxor P4update.Switch.fingerprint s)
      17 w.Harness.World.switches
  in
  (sw * 8191) lxor P4update.Controller.fingerprint w.Harness.World.controller

let test_mc_pins () =
  List.iter
    (fun (name, expected) ->
      let sc = Option.get (Mc.Scenario.find name) in
      Alcotest.(check int)
        (Printf.sprintf "mc %s fingerprint" name)
        expected (mc_fingerprint sc))
    mc_pins

(* Trace digest: the JSONL stream of one traced single-flow run is a
   deterministic function of the seed; djb2 keeps the pin readable. *)
let djb2 s =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) s;
  !h

let test_trace_digest () =
  let setup =
    { Harness.Scenarios.topo = Topo.Topologies.fig1; stragglers = false;
      congestion = false; headroom = 1.4; control = None }
  in
  let cfg = Harness.Run_config.make ~seed:2024 () in
  let r =
    Harness.Traced.run_single_cfg cfg setup Harness.Scenarios.P4u
      ~old_path:Topo.Topologies.fig1_old_path ~new_path:Topo.Topologies.fig1_new_path
  in
  Alcotest.(check int) "trace JSONL digest" 0x2aabd754
    (djb2 (Obs.Trace.to_jsonl r.Harness.Traced.tr_sink));
  Alcotest.(check (float 0.001)) "completion" 204.5 r.Harness.Traced.tr_completion_ms

(* --- the scale engine ----------------------------------------------- *)

let small_workload =
  { Harness.Scale.default_workload with
    Harness.Scale.wl_updates = 120; wl_flows = 30; wl_probe_every = 10 }

let test_scale_runs () =
  let cfg = Harness.Run_config.make ~seed:11 () in
  let r = Harness.Scale.run ~workload:small_workload cfg (Topo.Topologies.attmpls ()) in
  Alcotest.(check int) "all updates pushed" 120 r.Harness.Scale.sr_updates_pushed;
  Alcotest.(check bool) "most updates completed (rest overtaken by skip-ahead)" true
    (r.Harness.Scale.sr_updates_completed > 85);
  Alcotest.(check int) "no invariant violations" 0
    (List.length r.Harness.Scale.sr_violations);
  Alcotest.(check bool) "probes ran" true (r.Harness.Scale.sr_probes > 0);
  Alcotest.(check bool) "percentiles ordered" true
    (r.Harness.Scale.sr_p50_ms <= r.Harness.Scale.sr_p99_ms)

let test_scale_deterministic () =
  let cfg = Harness.Run_config.make ~seed:11 () in
  let run () = Harness.Scale.run ~workload:small_workload cfg (Topo.Topologies.chinanet ()) in
  let a = run () and b = run () in
  Alcotest.(check int) "completed" a.Harness.Scale.sr_updates_completed
    b.Harness.Scale.sr_updates_completed;
  Alcotest.(check int) "events" a.Harness.Scale.sr_events b.Harness.Scale.sr_events;
  Alcotest.(check (float 0.0)) "sim time" a.Harness.Scale.sr_sim_ms
    b.Harness.Scale.sr_sim_ms;
  Alcotest.(check (float 0.0)) "p99" a.Harness.Scale.sr_p99_ms b.Harness.Scale.sr_p99_ms

(* [World.make] points the global trace clock at the world it builds, so
   nothing [Scale.run] does after building its world may build another:
   an instant recorded after the run is stamped with the run's own
   simulated time. *)
let test_scale_keeps_trace_clock () =
  let sink = Obs.Trace.create () in
  Obs.Trace.install sink;
  Fun.protect ~finally:Obs.Trace.uninstall @@ fun () ->
  let cfg = Harness.Run_config.make ~seed:3 () in
  let wl =
    { Harness.Scale.default_workload with Harness.Scale.wl_updates = 40; wl_flows = 20 }
  in
  let r = Harness.Scale.run ~workload:wl cfg (Topo.Topologies.attmpls ()) in
  Obs.Trace.clear sink;
  Obs.Trace.instant ~cat:"test" "after_run";
  match Obs.Trace.events sink with
  | [ Obs.Trace.Instant { ts; _ } ] ->
    Alcotest.(check (float 0.0)) "stamped with the run's simulated time"
      r.Harness.Scale.sr_sim_ms ts
  | evs -> Alcotest.failf "expected one instant, got %d events" (List.length evs)

(* --- Run_config glue ------------------------------------------------- *)

let test_fault_plan_sync () =
  let c = Harness.Chaos.config_of_plan Harness.Run_config.default_faults in
  Alcotest.(check bool) "default fault plan = Chaos.default_config" true
    (c = Harness.Chaos.default_config)

let test_world_flows () =
  let topo = Topo.Topologies.b4 () in
  let path = Option.get (Topo.Graph.shortest_path topo.Topo.Topologies.graph ~src:0 ~dst:9) in
  let w =
    Harness.World.make ~seed:3 ~flows:[ Harness.World.flow ~src:0 ~dst:9 ~path () ] topo
  in
  match Harness.World.flow_of_pair w ~src:0 ~dst:9 with
  | None -> Alcotest.fail "installed flow not found"
  | Some f ->
    Alcotest.(check (list int)) "path installed" path f.P4update.Controller.path;
    Alcotest.(check int) "one flow" 1 (List.length (Harness.World.flows w));
    Alcotest.(check bool) "find_flow agrees" true
      (Harness.World.find_flow w ~flow_id:f.P4update.Controller.flow_id = Some f)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_same_pop_order;
    QCheck_alcotest.to_alcotest prop_calendar_pop_order;
    QCheck_alcotest.to_alcotest prop_remove_seq;
    QCheck_alcotest.to_alcotest prop_calendar_remove_seq;
    QCheck_alcotest.to_alcotest prop_control_codec_equiv;
    QCheck_alcotest.to_alcotest prop_data_codec_equiv;
    QCheck_alcotest.to_alcotest prop_decode_equiv_random_bytes;
    QCheck_alcotest.to_alcotest prop_header_bytes_equal_bits;
    Alcotest.test_case "pooled codec allocates nothing per frame" `Quick
      test_codec_zero_alloc;
    QCheck_alcotest.to_alcotest prop_forward_image_equals_boxed;
    Alcotest.test_case "recycled frames are never reused in flight" `Quick
      test_recycled_frames_not_reused_in_flight;
    Alcotest.test_case "forwarded hop allocation pinned" `Quick test_hop_allocation_pinned;
    Alcotest.test_case "chaos delivery hashes pinned" `Slow test_chaos_pins;
    Alcotest.test_case "mc fingerprints pinned" `Quick test_mc_pins;
    Alcotest.test_case "trace digest pinned" `Quick test_trace_digest;
    Alcotest.test_case "scale run completes clean" `Quick test_scale_runs;
    Alcotest.test_case "scale run is deterministic" `Quick test_scale_deterministic;
    Alcotest.test_case "Scale.run leaves the trace clock on its own world" `Quick
      test_scale_keeps_trace_clock;
    Alcotest.test_case "fault plan mirrors chaos defaults" `Quick test_fault_plan_sync;
    Alcotest.test_case "world builds with declared flows" `Quick test_world_flows;
  ]
