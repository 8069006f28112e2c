(* Tests for the network emulation layer. *)

module Sim = Dessim.Sim

let line_topo () =
  let g = Topo.Graph.create 3 in
  Topo.Graph.add_edge g ~u:0 ~v:1 ~latency_ms:5.0 ~capacity:10.0;
  Topo.Graph.add_edge g ~u:1 ~v:2 ~latency_ms:7.0 ~capacity:10.0;
  {
    Topo.Topologies.name = "line";
    kind = Topo.Topologies.Synthetic;
    graph = g;
    node_names = [| "a"; "b"; "c" |];
    controller = 1;
  }

(* A device that reacts the same way to both planes. *)
let attach_any net ~node f = Netsim.attach net ~node ~data:(fun ~port:_ b -> f b) ~control:f

let test_port_numbering () =
  let net = Netsim.create (Sim.create ()) (line_topo ()) in
  Alcotest.(check int) "node 1 has two ports" 2 (Netsim.port_count net ~node:1);
  Alcotest.(check (option int)) "port 0 of node 1" (Some 0)
    (Netsim.neighbor_of_port net ~node:1 ~port:0);
  Alcotest.(check (option int)) "port 1 of node 1" (Some 2)
    (Netsim.neighbor_of_port net ~node:1 ~port:1);
  Alcotest.(check (option int)) "out of range" None (Netsim.neighbor_of_port net ~node:1 ~port:7);
  Alcotest.(check int) "reverse lookup" 1 (Netsim.port_of_neighbor net ~node:1 ~neighbor:2)

let test_transmit_latency () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let arrival = ref None in
  Netsim.attach net ~node:1
    ~data:(fun ~port:_ _ -> arrival := Some (Sim.now sim))
    ~control:ignore;
  Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run sim in
  match !arrival with
  | Some t ->
    (* 5 ms propagation + 0.5 ms processing *)
    Alcotest.(check (float 0.001)) "latency" 5.5 t
  | None -> Alcotest.fail "packet not delivered"

let test_unbound_port_is_noop () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  Netsim.transmit net ~from:0 ~port:9 (Bytes.of_string "x");
  Alcotest.(check int) "no event scheduled" 0 (Sim.pending sim)

let test_controller_fifo_serialization () =
  (* Two back-to-back controller messages to the same switch must be
     spaced by at least the service time. *)
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let arrivals = ref [] in
  Netsim.attach net ~node:0
    ~data:(fun ~port:_ _ -> ())
    ~control:(fun _ -> arrivals := Sim.now sim :: !arrivals);
  Netsim.controller_transmit net ~to_:0 (Bytes.of_string "a");
  Netsim.controller_transmit net ~to_:0 (Bytes.of_string "b");
  let _ = Sim.run sim in
  match List.rev !arrivals with
  | [ t1; t2 ] ->
    let service = (Netsim.config net).Netsim.controller_service_ms in
    Alcotest.(check bool)
      (Printf.sprintf "serialized (%.3f then %.3f)" t1 t2)
      true
      (t2 -. t1 >= service -. 1e-9)
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_fault_drop () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let received = ref 0 in
  attach_any net ~node:1 (fun _ -> incr received);
  Netsim.set_data_fault net (fun ~from:_ ~to_:_ _ -> Netsim.Drop);
  Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run sim in
  Alcotest.(check int) "dropped" 0 !received;
  Alcotest.(check int) "counted" 1 (Netsim.counters net).Netsim.dropped_by_fault;
  Netsim.clear_data_fault net;
  Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run sim in
  Alcotest.(check int) "delivered after clear" 1 !received

let test_fault_duplicate () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let received = ref 0 in
  attach_any net ~node:1 (fun _ -> incr received);
  Netsim.set_data_fault net (fun ~from:_ ~to_:_ _ -> Netsim.Duplicate);
  Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run sim in
  Alcotest.(check int) "two copies" 2 !received

let test_fault_duplicate_no_storm () =
  (* A hook that always answers Duplicate must not amplify: the copy goes
     through the hook once more (so it can be dropped/delayed), but a
     Duplicate verdict on the copy is absorbed as a plain delivery. *)
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let received = ref 0 and hook_calls = ref 0 in
  attach_any net ~node:1 (fun _ -> incr received);
  Netsim.set_data_fault net (fun ~from:_ ~to_:_ _ ->
      incr hook_calls;
      Netsim.Duplicate);
  Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run sim in
  Alcotest.(check int) "exactly two copies" 2 !received;
  Alcotest.(check int) "hook ran twice (original + copy)" 2 !hook_calls;
  Alcotest.(check int) "one duplication counted" 1
    (Netsim.counters net).Netsim.duplicated_by_fault;
  (* The copy can still be dropped. *)
  let received2 = ref 0 in
  let net2 = Netsim.create (Sim.create ()) (line_topo ()) in
  attach_any net2 ~node:1 (fun _ -> incr received2);
  let first = ref true in
  Netsim.set_data_fault net2 (fun ~from:_ ~to_:_ _ ->
      if !first then begin
        first := false;
        Netsim.Duplicate
      end
      else Netsim.Drop);
  Netsim.transmit net2 ~from:0 ~port:0 (Bytes.of_string "x");
  let _ = Sim.run (Netsim.sim net2) in
  Alcotest.(check int) "copy dropped, original kept" 1 !received2

let test_fault_outcome_counters () =
  let sim = Sim.create ~seed:7 () in
  let net = Netsim.create sim (line_topo ()) in
  attach_any net ~node:1 (fun _ -> ());
  let verdicts = ref [ Netsim.Delay 3.0; Netsim.Corrupt; Netsim.Duplicate; Netsim.Drop ] in
  Netsim.set_data_fault net (fun ~from:_ ~to_:_ _ ->
      match !verdicts with
      | v :: rest ->
        verdicts := rest;
        v
      | [] -> Netsim.Deliver);
  for _ = 1 to 4 do
    Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x")
  done;
  let _ = Sim.run sim in
  let c = Netsim.counters net in
  Alcotest.(check int) "delayed" 1 c.Netsim.delayed_by_fault;
  Alcotest.(check int) "corrupted" 1 c.Netsim.corrupted_by_fault;
  Alcotest.(check int) "duplicated" 1 c.Netsim.duplicated_by_fault;
  Alcotest.(check int) "dropped" 1 c.Netsim.dropped_by_fault

let test_control_fault_both_directions () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let downlink = ref 0 and uplink = ref 0 in
  Netsim.attach net ~node:0 ~data:(fun ~port:_ _ -> ()) ~control:(fun _ -> incr downlink);
  Netsim.set_controller net (fun ~from:_ _ -> incr uplink);
  let directions = ref [] in
  Netsim.set_control_fault net (fun ~dir _ ->
      directions := dir :: !directions;
      Netsim.Drop);
  Netsim.controller_transmit net ~to_:0 (Bytes.of_string "uim");
  Netsim.notify_controller net ~from:2 (Bytes.of_string "ufm");
  let _ = Sim.run sim in
  Alcotest.(check int) "downlink dropped" 0 !downlink;
  Alcotest.(check int) "uplink dropped" 0 !uplink;
  Alcotest.(check int) "both planes counted" 2 (Netsim.counters net).Netsim.dropped_by_fault;
  Alcotest.(check bool) "directions observed" true
    (List.mem (Netsim.To_switch 0) !directions
     && List.mem (Netsim.To_controller 2) !directions);
  Netsim.clear_control_fault net;
  Netsim.controller_transmit net ~to_:0 (Bytes.of_string "uim");
  let _ = Sim.run sim in
  Alcotest.(check int) "delivered after clear" 1 !downlink

let test_control_kind_counters () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  attach_any net ~node:0 (fun _ -> ());
  Netsim.set_controller net (fun ~from:_ _ -> ());
  (* Classify by first byte, like the harness does with Wire kinds. *)
  Netsim.set_control_classifier net (fun bytes ->
      match Bytes.get bytes 0 with '2' -> Some 2 | '4' -> Some 4 | _ -> None);
  Netsim.controller_transmit net ~to_:0 (Bytes.of_string "2uim");
  Netsim.controller_transmit net ~to_:0 (Bytes.of_string "2uim");
  Netsim.notify_controller net ~from:2 (Bytes.of_string "4ufm");
  Netsim.notify_controller net ~from:2 (Bytes.of_string "?junk");
  let _ = Sim.run sim in
  Alcotest.(check int) "UIM sends" 2 (Netsim.control_kind_count net ~kind:2);
  Alcotest.(check int) "UFM sends" 1 (Netsim.control_kind_count net ~kind:4);
  Alcotest.(check int) "unclassified in slot 0" 1 (Netsim.control_kind_count net ~kind:0)

let test_link_failure_loses_packets () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let received = ref 0 in
  attach_any net ~node:1 (fun _ -> incr received);
  let events = ref [] in
  Netsim.on_topology_event net (fun ev -> events := ev :: !events);
  Netsim.fail_link net ~u:0 ~v:1 ~at:10.0;
  Netsim.restore_link net ~u:0 ~v:1 ~at:50.0;
  (* Sent while the link is down: lost. *)
  Sim.schedule_at sim ~time:20.0 (fun () ->
      Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x"));
  (* Sent just before the failure, still in flight at t=10: also lost. *)
  Sim.schedule_at sim ~time:9.0 (fun () ->
      Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "y"));
  (* Sent after the restore: delivered. *)
  Sim.schedule_at sim ~time:60.0 (fun () ->
      Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "z"));
  let _ = Sim.run sim in
  Alcotest.(check int) "only the post-restore packet" 1 !received;
  Alcotest.(check int) "losses counted" 2 (Netsim.counters net).Netsim.dropped_by_failure;
  Alcotest.(check bool) "down then up observed" true
    (List.rev !events = [ Netsim.Link_down (0, 1); Netsim.Link_up (0, 1) ])

let test_node_failure_silences_node () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let received_at_1 = ref 0 and uplink = ref 0 in
  attach_any net ~node:1 (fun _ -> incr received_at_1);
  Netsim.set_controller net (fun ~from:_ _ -> incr uplink);
  Netsim.fail_node net ~node:1 ~at:10.0;
  Netsim.restore_node net ~node:1 ~at:50.0;
  Sim.schedule_at sim ~time:20.0 (fun () ->
      (* dead receiver *)
      Netsim.transmit net ~from:0 ~port:0 (Bytes.of_string "x");
      (* dead sender: emits nothing on either plane *)
      Netsim.transmit net ~from:1 ~port:0 (Bytes.of_string "y");
      Netsim.notify_controller net ~from:1 (Bytes.of_string "z");
      Alcotest.(check bool) "node reported down" false (Netsim.node_is_up net ~node:1));
  let _ = Sim.run sim in
  Alcotest.(check int) "nothing delivered to dead node" 0 !received_at_1;
  Alcotest.(check int) "nothing reached controller" 0 !uplink;
  Alcotest.(check bool) "node up after restore" true (Netsim.node_is_up net ~node:1);
  (* x and z are counted as losses; a dead sender (y) emits nothing at all. *)
  Alcotest.(check int) "failure losses counted" 2
    (Netsim.counters net).Netsim.dropped_by_failure

let test_observer_sees_delivery () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  attach_any net ~node:1 (fun _ -> ());
  let seen = ref [] in
  Netsim.on_delivery net (fun _time node port bytes ->
      seen := (node, port, Bytes.to_string bytes) :: !seen);
  Netsim.transmit net ~from:2 ~port:0 (Bytes.of_string "hello");
  let _ = Sim.run sim in
  Alcotest.(check (list (triple int int string))) "observed" [ (1, 1, "hello") ] !seen

let test_straggler_distribution () =
  let sim = Sim.create ~seed:123 () in
  let config = { Netsim.default_config with rule_update_mean_ms = Some 100.0 } in
  let net = Netsim.create ~config sim (line_topo ()) in
  let samples = List.init 200 (fun _ -> Netsim.rule_update_delay net ~node:0) in
  let mean = List.fold_left ( +. ) 0.0 samples /. 200.0 in
  Alcotest.(check bool) (Printf.sprintf "mean near 100 (%.1f)" mean) true
    (mean > 75.0 && mean < 130.0);
  Alcotest.(check bool) "all nonnegative" true (List.for_all (fun x -> x >= 0.0) samples);
  let no_straggler = Netsim.create (Sim.create ()) (line_topo ()) in
  Alcotest.(check (float 0.0)) "disabled" 0.0 (Netsim.rule_update_delay no_straggler ~node:0)

let test_control_latency_geo () =
  let net = Netsim.create (Sim.create ()) (line_topo ()) in
  (* controller at node 1: latency to node 0 is the 0-1 link. *)
  Alcotest.(check (float 0.001)) "geo latency" 5.0 (Netsim.control_latency_of net ~node:0);
  Alcotest.(check (float 0.001)) "geo latency 2" 7.0 (Netsim.control_latency_of net ~node:2)

(* The waiting loop's resubmissions carry pooled frames: the network
   returns the frame once, after the re-injection was handled — or lost
   to a down node.  Frames of a length nothing else pools keep the
   global pool count readable. *)
let test_resubmit_recycles_after_delivery () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let before = Netsim.pooled_frames () in
  let log = ref [] in
  attach_any net ~node:1 (fun _ ->
      log := Printf.sprintf "handled, %d pooled" (Netsim.pooled_frames () - before) :: !log);
  Netsim.resubmit ~pooled:true net ~node:1 (Bytes.make 47 'x');
  Alcotest.(check int) "held while scheduled" before (Netsim.pooled_frames ());
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "handled before the return" [ "handled, 0 pooled" ] !log;
  Alcotest.(check int) "returned once, after the handler" (before + 1)
    (Netsim.pooled_frames ());
  Netsim.fail_node net ~node:1 ~at:(Sim.now sim);
  ignore (Sim.run sim);
  Netsim.resubmit ~pooled:true net ~node:1 (Bytes.make 47 'y');
  ignore (Sim.run sim);
  Alcotest.(check int) "a lost re-injection is returned too" (before + 2)
    (Netsim.pooled_frames ())

(* Every fault verdict returns a pooled frame exactly once, and never
   while a delivery still carries it. *)
let test_verdicts_recycle_once () =
  List.iter
    (fun (name, verdicts, deliveries) ->
      let sim = Sim.create ~seed:3 () in
      let net = Netsim.create sim (line_topo ()) in
      let frame = Bytes.make 53 'p' in
      let before = Netsim.pooled_frames () in
      let received = ref 0 and early = ref 0 in
      Netsim.attach net ~node:1 ~control:ignore ~data:(fun ~port:_ b ->
          incr received;
          if b == frame && Netsim.pooled_frames () <> before then incr early);
      let pending = ref verdicts in
      Netsim.set_data_fault net (fun ~from:_ ~to_:_ _ ->
          match !pending with
          | v :: rest ->
            pending := rest;
            v
          | [] -> Netsim.Deliver);
      Netsim.transmit ~pooled:true net ~from:0 ~port:0 frame;
      ignore (Sim.run sim);
      Alcotest.(check int) (name ^ ": deliveries") deliveries !received;
      Alcotest.(check int) (name ^ ": returned while carried") 0 !early;
      Alcotest.(check int) (name ^ ": returned once") (before + 1) (Netsim.pooled_frames ()))
    [
      ("deliver", [], 1);
      ("drop", [ Netsim.Drop ], 0);
      ("delay", [ Netsim.Delay 2.0 ], 1);
      ("corrupt", [ Netsim.Corrupt ], 1);
      ("duplicate", [ Netsim.Duplicate; Netsim.Deliver ], 2);
      ("duplicate, copy dropped", [ Netsim.Duplicate; Netsim.Drop ], 1);
      ("duplicate, copy corrupted", [ Netsim.Duplicate; Netsim.Corrupt ], 2);
      ("duplicate, copy delayed", [ Netsim.Duplicate; Netsim.Delay 1.0 ], 2);
    ]

(* Fault-free data transmission allocates one delivery record (7 words)
   per hop plus float boxes for the delay, the popped event time and the
   calendar cursor: measured 20.3 words (OCaml 5.1, x86-64), bound with
   20% headroom.  A closure, refcount or variant box per send would
   break it. *)
let transmit_words_bound = 24

let test_transmit_allocation_bounded () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  Netsim.attach net ~node:1 ~control:ignore ~data:(fun ~port:_ _ -> ());
  let sends = 10_000 in
  let round () =
    for _ = 1 to sends do
      Netsim.transmit ~pooled:true net ~from:0 ~port:0 (Netsim.take_frame 59)
    done;
    ignore (Sim.run sim)
  in
  round ();
  let words0 = Gc.minor_words () in
  round ();
  let per_delivery = (Gc.minor_words () -. words0) /. float_of_int sends in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per transmit + delivery (bound %d)" per_delivery
       transmit_words_bound)
    true
    (per_delivery <= float_of_int transmit_words_bound)

let suite =
  [
    Alcotest.test_case "port numbering" `Quick test_port_numbering;
    Alcotest.test_case "transmit latency" `Quick test_transmit_latency;
    Alcotest.test_case "unbound port no-op" `Quick test_unbound_port_is_noop;
    Alcotest.test_case "controller FIFO serialization" `Quick test_controller_fifo_serialization;
    Alcotest.test_case "fault: drop" `Quick test_fault_drop;
    Alcotest.test_case "fault: duplicate" `Quick test_fault_duplicate;
    Alcotest.test_case "fault: duplicate does not storm" `Quick test_fault_duplicate_no_storm;
    Alcotest.test_case "fault: outcome counters" `Quick test_fault_outcome_counters;
    Alcotest.test_case "control fault: both directions" `Quick
      test_control_fault_both_directions;
    Alcotest.test_case "control counters split by kind" `Quick test_control_kind_counters;
    Alcotest.test_case "link failure loses packets" `Quick test_link_failure_loses_packets;
    Alcotest.test_case "node failure silences node" `Quick test_node_failure_silences_node;
    Alcotest.test_case "resubmit recycles after delivery" `Quick
      test_resubmit_recycles_after_delivery;
    Alcotest.test_case "every verdict recycles a pooled frame once" `Quick
      test_verdicts_recycle_once;
    Alcotest.test_case "transmit + delivery allocation bounded" `Quick
      test_transmit_allocation_bounded;
    Alcotest.test_case "delivery observer" `Quick test_observer_sees_delivery;
    Alcotest.test_case "straggler distribution" `Quick test_straggler_distribution;
    Alcotest.test_case "geo control latency" `Quick test_control_latency_geo;
  ]
