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
  Netsim.attach net ~node:1 (fun event ->
      match event with
      | Netsim.Data _ -> arrival := Some (Sim.now sim)
      | Netsim.From_controller _ -> ());
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
  Netsim.attach net ~node:0 (fun event ->
      match event with
      | Netsim.From_controller _ -> arrivals := Sim.now sim :: !arrivals
      | Netsim.Data _ -> ());
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
  Netsim.attach net ~node:1 (fun _ -> incr received);
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
  Netsim.attach net ~node:1 (fun _ -> incr received);
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
  Netsim.attach net ~node:1 (fun _ -> incr received);
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
  Netsim.attach net2 ~node:1 (fun _ -> incr received2);
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
  Netsim.attach net ~node:1 (fun _ -> ());
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
  Netsim.attach net ~node:0 (fun event ->
      match event with Netsim.From_controller _ -> incr downlink | Netsim.Data _ -> ());
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
  Netsim.attach net ~node:0 (fun _ -> ());
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
  Netsim.attach net ~node:1 (fun _ -> incr received);
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
  Netsim.attach net ~node:1 (fun _ -> incr received_at_1);
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
  Netsim.attach net ~node:1 (fun _ -> ());
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

(* The waiting loop's resubmissions carry pooled frames: [?recycle] runs
   once, after the re-injection was handled — or lost to a down node. *)
let test_resubmit_recycles_after_delivery () =
  let sim = Sim.create () in
  let net = Netsim.create sim (line_topo ()) in
  let log = ref [] in
  Netsim.attach net ~node:1 (fun _ -> log := "handled" :: !log);
  Netsim.resubmit ~recycle:(fun () -> log := "recycled" :: !log) net ~node:1
    (Bytes.of_string "x");
  Alcotest.(check (list string)) "held while scheduled" [] !log;
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "recycled once, after the handler"
    [ "handled"; "recycled" ] (List.rev !log);
  log := [];
  Netsim.fail_node net ~node:1 ~at:(Sim.now sim);
  ignore (Sim.run sim);
  Netsim.resubmit ~recycle:(fun () -> log := "recycled" :: !log) net ~node:1
    (Bytes.of_string "y");
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "a lost re-injection still recycles" [ "recycled" ] !log

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
    Alcotest.test_case "delivery observer" `Quick test_observer_sees_delivery;
    Alcotest.test_case "straggler distribution" `Quick test_straggler_distribution;
    Alcotest.test_case "geo control latency" `Quick test_control_latency_geo;
  ]
