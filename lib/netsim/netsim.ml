module Sim = Dessim.Sim
module Graph = Topo.Graph
module Topologies = Topo.Topologies

type control_latency =
  | Geo
  | Normal_dist of { mean : float; stddev : float }
  | Fixed of float

type config = {
  switch_processing_ms : float;
  rule_update_mean_ms : float option;
  resubmit_delay_ms : float;
  control_latency : control_latency;
  controller_service_ms : float;
  controller_background_ms : float;
}

let default_config =
  {
    switch_processing_ms = 0.5;
    rule_update_mean_ms = None;
    resubmit_delay_ms = 0.25;
    control_latency = Geo;
    controller_service_ms = 0.25;
    controller_background_ms = 0.0;
  }

type fault = Deliver | Drop | Delay of float | Corrupt | Duplicate

type ctl_direction = To_switch of int | To_controller of int

type topo_event =
  | Link_down of int * int
  | Link_up of int * int
  | Node_down of int
  | Node_up of int

let kind_space = 8

(* Human-readable wire-kind names used in metric names; index = kind. *)
let kind_names =
  [| "unclassified"; "frm"; "uim"; "unm"; "ufm"; "cln"; "kind6"; "kind7" |]

(* Read-only snapshot of the network counters.  The live values now live in
   an [Obs.Metrics] registry (one per network); [counters] rebuilds this
   record on each call so existing field-access call sites keep working. *)
type counters = {
  data_packets : int;
  data_injected : int;
  control_to_switch : int;
  control_to_controller : int;
  resubmissions : int;
  dropped_by_fault : int;
  delayed_by_fault : int;
  corrupted_by_fault : int;
  duplicated_by_fault : int;
  dropped_by_failure : int;
  control_kind_tx : int array; (* per wire msg kind; slot 0 = unclassified *)
}

(* Pre-resolved counter handles so the hot paths do one field mutation per
   event instead of a name lookup. *)
type stats_handles = {
  h_data_packets : Obs.Metrics.counter;
  h_data_injected : Obs.Metrics.counter;
  h_control_to_switch : Obs.Metrics.counter;
  h_control_to_controller : Obs.Metrics.counter;
  h_resubmissions : Obs.Metrics.counter;
  h_dropped_by_fault : Obs.Metrics.counter;
  h_delayed_by_fault : Obs.Metrics.counter;
  h_corrupted_by_fault : Obs.Metrics.counter;
  h_duplicated_by_fault : Obs.Metrics.counter;
  h_dropped_by_failure : Obs.Metrics.counter;
  h_control_kind_tx : Obs.Metrics.counter array;
}

(* Where a scheduled delivery goes when it fires. *)
type route =
  | Link      (* data frame over a link *)
  | Host      (* host-injected data frame *)
  | Loop      (* resubmitted frame *)
  | Uplink    (* switch-to-controller message reaching the controller *)
  | Serve     (* ... and leaving its FIFO server for the handler *)
  | Downlink  (* controller-to-switch message *)

(* Who returns a delivered frame to the pool.  [Shared] exists only when
   a [Duplicate] verdict makes two deliveries carry one pooled frame. *)
type owner = Unpooled | Pooled | Shared of { mutable refs : int }

(* One scheduled delivery: the event payload {!Sim.schedule_call} hands
   to the network's [fire] function. *)
type delivery = {
  mutable dv_route : route;
  dv_node : int;       (* receiver; -1 = the controller *)
  dv_from : int;       (* sender *)
  dv_port : int;       (* port the receiver sees *)
  dv_bytes : Bytes.t;  (* a private copy after a [Corrupt] verdict *)
  mutable dv_owner : owner;
}

type t = {
  sim : Sim.t;
  topo : Topologies.t;
  cfg : config;
  (* Per-(node, port) tables, built once: the neighbour, the port it
     receives on, link latency plus the receiver's processing time, and
     whether the link is down (kept current by [fail_link] /
     [restore_link], for both of its ends). *)
  ports : int array array;
  port_rx : int array array;
  port_delay : float array array;
  port_down : bool array array;
  data_handlers : (port:int -> Bytes.t -> unit) array;
  control_handlers : (Bytes.t -> unit) array;
  mutable controller_handler : (from:int -> Bytes.t -> unit) option;
  mutable data_fault : (from:int -> to_:int -> Bytes.t -> fault) option;
  mutable control_fault : (dir:ctl_direction -> Bytes.t -> fault) option;
  mutable control_classifier : (Bytes.t -> int option) option;
  mutable flow_extractor : (Bytes.t -> int option) option;
  mutable observers : (float -> int -> int -> Bytes.t -> unit) list;
  mutable topo_observers : (topo_event -> unit) list;
  node_down : bool array;
  ctl_latency : float array; (* per-node control-plane latency (Geo/Fixed) *)
  mutable controller_busy_until : float;
  mutable fire : delivery -> unit;
  metrics : Obs.Metrics.t;
  stats : stats_handles;
}

let compute_ctl_latencies topo cfg =
  let g = topo.Topologies.graph in
  let n = Graph.node_count g in
  Array.init n (fun node ->
      match cfg.control_latency with
      | Fixed ms -> ms
      | Normal_dist _ -> 0.0 (* sampled per message instead *)
      | Geo ->
        if node = topo.Topologies.controller then 0.05
        else (
          match Graph.shortest_path g ~src:topo.Topologies.controller ~dst:node with
          | Some path -> Graph.path_latency g path
          | None -> invalid_arg "Netsim: controller cannot reach every node"))

let make_stats_handles metrics =
  let c = Obs.Metrics.counter metrics in
  {
    h_data_packets = c "net.data.rx";
    h_data_injected = c "net.data.injected";
    h_control_to_switch = c "net.ctl.to_switch";
    h_control_to_controller = c "net.ctl.to_controller";
    h_resubmissions = c "net.data.resubmit";
    h_dropped_by_fault = c "net.fault.dropped";
    h_delayed_by_fault = c "net.fault.delayed";
    h_corrupted_by_fault = c "net.fault.corrupted";
    h_duplicated_by_fault = c "net.fault.duplicated";
    h_dropped_by_failure = c "net.failure.dropped";
    h_control_kind_tx =
      Array.init kind_space (fun k -> c ("net.ctl.kind." ^ kind_names.(k)));
  }

(* ------------------------------------------------------------------ *)
(* Frame pool                                                           *)
(* ------------------------------------------------------------------ *)

(* Free-list pool of frame buffers, one stack per frame length.  A
   frame sent with [~pooled:true] comes back here once its last delivery
   has run (see [release]).  Each stack is capped so a burst cannot pin
   an unbounded byte arena, and only short frames are pooled. *)
type pool = { mutable store : Bytes.t array; mutable n : int }

let pool_cap = 4096
let max_pooled_len = 64
let pools = Array.init (max_pooled_len + 1) (fun _ -> { store = [||]; n = 0 })

let take_frame len =
  if len < 0 || len > max_pooled_len then Bytes.create len
  else begin
    let pool = pools.(len) in
    if pool.n = 0 then Bytes.create len
    else begin
      pool.n <- pool.n - 1;
      pool.store.(pool.n)
    end
  end

let release_frame b =
  let len = Bytes.length b in
  if len <= max_pooled_len then begin
    let pool = pools.(len) in
    if pool.n < pool_cap then begin
      if pool.n = Array.length pool.store then begin
        let store = Array.make (max 64 (2 * Array.length pool.store)) Bytes.empty in
        Array.blit pool.store 0 store 0 pool.n;
        pool.store <- store
      end;
      pool.store.(pool.n) <- b;
      pool.n <- pool.n + 1
    end
  end

let pooled_frames () = Array.fold_left (fun acc pool -> acc + pool.n) 0 pools

(* ------------------------------------------------------------------ *)
(* Ports and devices                                                    *)
(* ------------------------------------------------------------------ *)

let port_of ports ~node ~neighbor =
  let arr = ports.(node) in
  let rec find i =
    if i >= Array.length arr then
      invalid_arg
        (Printf.sprintf "Netsim.port_of_neighbor: %d is not adjacent to %d" neighbor node)
    else if arr.(i) = neighbor then i
    else find (i + 1)
  in
  find 0

let sim t = t.sim
let topology t = t.topo
let graph t = t.topo.Topologies.graph
let config t = t.cfg
let metrics t = t.metrics

let counters t =
  let s = t.stats in
  let c = Obs.Metrics.count in
  {
    data_packets = c s.h_data_packets;
    data_injected = c s.h_data_injected;
    control_to_switch = c s.h_control_to_switch;
    control_to_controller = c s.h_control_to_controller;
    resubmissions = c s.h_resubmissions;
    dropped_by_fault = c s.h_dropped_by_fault;
    delayed_by_fault = c s.h_delayed_by_fault;
    corrupted_by_fault = c s.h_corrupted_by_fault;
    duplicated_by_fault = c s.h_duplicated_by_fault;
    dropped_by_failure = c s.h_dropped_by_failure;
    control_kind_tx = Array.map c s.h_control_kind_tx;
  }

let control_kind_count t ~kind =
  if kind < 0 || kind >= kind_space then 0
  else Obs.Metrics.count t.stats.h_control_kind_tx.(kind)

let port_count t ~node = Array.length t.ports.(node)

let neighbor_of_port t ~node ~port =
  if port < 0 || port >= Array.length t.ports.(node) then None
  else Some t.ports.(node).(port)

let port_of_neighbor t ~node ~neighbor = port_of t.ports ~node ~neighbor

let attach t ~node ~data ~control =
  t.data_handlers.(node) <- data;
  t.control_handlers.(node) <- control

let set_controller t handler = t.controller_handler <- Some handler
let set_data_fault t hook = t.data_fault <- Some hook
let clear_data_fault t = t.data_fault <- None
let set_control_fault t hook = t.control_fault <- Some hook
let clear_control_fault t = t.control_fault <- None
let set_control_classifier t f = t.control_classifier <- Some f
let set_flow_extractor t f = t.flow_extractor <- Some f

(* Delivery tags feed the model checker's choice-point layer; computing
   them costs a payload hash, so they are only built when a scheduling
   policy is actually installed.  [node] is the node whose state the
   delivery mutates (-1 = the controller). *)
let delivery_tag t ~kind ~node bytes =
  if not (Sim.chooser_installed t.sim) then None
  else begin
    let flow =
      match t.flow_extractor with
      | None -> -1
      | Some f -> ( match f bytes with Some fl -> fl | None -> -1)
    in
    Some (Sim.tag ~kind ~node ~flow ~hash:(Hashtbl.hash (Bytes.to_string bytes)))
  end
let on_delivery t f = t.observers <- t.observers @ [ f ]
let on_topology_event t f = t.topo_observers <- t.topo_observers @ [ f ]

(* ------------------------------------------------------------------ *)
(* Topology failures                                                    *)
(* ------------------------------------------------------------------ *)

let node_is_up t ~node = not t.node_down.(node)

let link_is_up t u v =
  match port_of t.ports ~node:u ~neighbor:v with
  | port -> not t.port_down.(u).(port)
  | exception Invalid_argument _ -> true

let set_link_down t u v down =
  let pu = port_of t.ports ~node:u ~neighbor:v in
  t.port_down.(u).(pu) <- down;
  t.port_down.(v).(t.port_rx.(u).(pu)) <- down

let fire_topo_event t ev =
  (let node, a, b =
     match ev with
     | Link_down (u, v) -> (u, v, 0)
     | Link_up (u, v) -> (u, v, 1)
     | Node_down n -> (n, -1, 0)
     | Node_up n -> (n, -1, 1)
   in
   Obs.Flight_recorder.note ~now:(Sim.now t.sim) ~kind:Obs.Flight_recorder.k_topo
     ~node ~flow:(-1) ~a ~b);
  if Obs.Trace.enabled () then begin
    let name, attrs =
      match ev with
      | Link_down (u, v) -> ("link.down", [ Obs.Trace.int "u" u; Obs.Trace.int "v" v ])
      | Link_up (u, v) -> ("link.up", [ Obs.Trace.int "u" u; Obs.Trace.int "v" v ])
      | Node_down n -> ("node.down", [ Obs.Trace.int "node" n ])
      | Node_up n -> ("node.up", [ Obs.Trace.int "node" n ])
    in
    Obs.Trace.instant ~cat:"topo" ~attrs name
  end;
  List.iter (fun f -> f ev) t.topo_observers

let check_link t u v fn =
  if not (Graph.has_edge (graph t) u v) then
    invalid_arg (Printf.sprintf "Netsim.%s: no link %d-%d" fn u v)

let fail_link t ~u ~v ~at =
  check_link t u v "fail_link";
  Sim.schedule_at t.sim ~time:at (fun () ->
      if link_is_up t u v then begin
        set_link_down t u v true;
        fire_topo_event t (Link_down (u, v))
      end)

let restore_link t ~u ~v ~at =
  check_link t u v "restore_link";
  Sim.schedule_at t.sim ~time:at (fun () ->
      if not (link_is_up t u v) then begin
        set_link_down t u v false;
        fire_topo_event t (Link_up (u, v))
      end)

let fail_node t ~node ~at =
  Sim.schedule_at t.sim ~time:at (fun () ->
      if node_is_up t ~node then begin
        t.node_down.(node) <- true;
        fire_topo_event t (Node_down node)
      end)

let restore_node t ~node ~at =
  Sim.schedule_at t.sim ~time:at (fun () ->
      if not (node_is_up t ~node) then begin
        t.node_down.(node) <- false;
        fire_topo_event t (Node_up node)
      end)

(* ------------------------------------------------------------------ *)
(* Latency                                                              *)
(* ------------------------------------------------------------------ *)

let sample_ctl_latency t ~node =
  match t.cfg.control_latency with
  | Normal_dist { mean; stddev } -> Sim.normal t.sim ~mean ~stddev
  | Geo | Fixed _ -> t.ctl_latency.(node)

let control_latency_of t ~node = sample_ctl_latency t ~node

(* The controller is a single-thread FIFO server: each message (in either
   direction) occupies it for [controller_service_ms]. *)
let controller_slot t =
  let now = Sim.now t.sim in
  let background =
    if t.cfg.controller_background_ms <= 0.0 then 0.0
    else Sim.exponential t.sim ~mean:t.cfg.controller_background_ms
  in
  let start = Float.max now t.controller_busy_until in
  t.controller_busy_until <- start +. t.cfg.controller_service_ms +. background;
  t.controller_busy_until -. now

(* ------------------------------------------------------------------ *)
(* Deliveries                                                           *)
(* ------------------------------------------------------------------ *)

(* The frame goes back to the pool after the last delivery carrying it. *)
let release dv =
  match dv.dv_owner with
  | Unpooled -> ()
  | Pooled -> release_frame dv.dv_bytes
  | Shared s ->
    s.refs <- s.refs - 1;
    if s.refs = 0 then release_frame dv.dv_bytes

let rec notify_observers now node port bytes = function
  | [] -> ()
  | f :: rest ->
    f now node port bytes;
    notify_observers now node port bytes rest

let fire_delivery t dv =
  let node = dv.dv_node in
  match dv.dv_route with
  | Link ->
    (* A packet in flight is lost if the link or the receiver went down
       before it arrived. *)
    let port = dv.dv_port in
    (if t.node_down.(node) || t.port_down.(node).(port) then
       Obs.Metrics.incr t.stats.h_dropped_by_failure
     else begin
       Obs.Metrics.incr t.stats.h_data_packets;
       Obs.Flight_recorder.note ~now:(Sim.now t.sim)
         ~kind:Obs.Flight_recorder.k_deliver ~node ~flow:(-1) ~a:dv.dv_from ~b:port;
       if Obs.Trace.enabled () then
         Obs.Trace.instant ~cat:"net" ~node "data.rx"
           ~attrs:[ Obs.Trace.int "from" dv.dv_from; Obs.Trace.int "port" port ];
       notify_observers (Sim.now t.sim) node port dv.dv_bytes t.observers;
       t.data_handlers.(node) ~port dv.dv_bytes
     end);
    release dv
  | Host ->
    if t.node_down.(node) then Obs.Metrics.incr t.stats.h_dropped_by_failure
    else t.data_handlers.(node) ~port:dv.dv_port dv.dv_bytes;
    release dv
  | Loop ->
    if not t.node_down.(node) then t.data_handlers.(node) ~port:dv.dv_port dv.dv_bytes;
    release dv
  | Uplink ->
    dv.dv_route <- Serve;
    Sim.schedule_call t.sim ~delay:(controller_slot t) t.fire dv
  | Serve ->
    (match t.controller_handler with
     | Some handler -> handler ~from:dv.dv_from dv.dv_bytes
     | None -> ());
    release dv
  | Downlink ->
    if t.node_down.(node) then Obs.Metrics.incr t.stats.h_dropped_by_failure
    else t.control_handlers.(node) dv.dv_bytes;
    release dv

let tag_kind = function
  | Link -> "data"
  | Host -> "inject"
  | Loop -> "resubmit"
  | Uplink | Serve -> "ctl.up"
  | Downlink -> "ctl.down"

let schedule t route ~node ~from ~port ~owner ~delay bytes =
  let dv =
    { dv_route = route; dv_node = node; dv_from = from; dv_port = port; dv_bytes = bytes;
      dv_owner = owner }
  in
  Sim.schedule_call
    ?tag:(delivery_tag t ~kind:(tag_kind route) ~node bytes)
    t.sim ~delay t.fire dv;
  dv

(* ------------------------------------------------------------------ *)
(* Faults                                                               *)
(* ------------------------------------------------------------------ *)

let corrupt_bytes rng bytes =
  let b = Bytes.copy bytes in
  if Bytes.length b > 0 then begin
    let i = Random.State.int rng (Bytes.length b) in
    let bit = 1 lsl Random.State.int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit))
  end;
  b

let duplicate_gap_ms = 0.01

let fault_instant name =
  if Obs.Trace.enabled () then Obs.Trace.instant ~cat:"fault" name

(* The installed hook's verdict on a frame about to travel [route]. *)
let verdict t route ~node ~from bytes =
  match route with
  | Link -> (
    match t.data_fault with None -> Deliver | Some hook -> hook ~from ~to_:node bytes)
  | Uplink -> (
    match t.control_fault with
    | None -> Deliver
    | Some hook -> hook ~dir:(To_controller from) bytes)
  | Downlink -> (
    match t.control_fault with
    | None -> Deliver
    | Some hook -> hook ~dir:(To_switch node) bytes)
  | Host | Loop | Serve -> Deliver

(* Stands for "no delivery carries the frame" in [survive]. *)
let carried_by_none =
  { dv_route = Loop; dv_node = -1; dv_from = -1; dv_port = -1; dv_bytes = Bytes.empty;
    dv_owner = Unpooled }

(* Schedule what survives a (non-[Duplicate]) verdict on [bytes] and
   return the delivery that carries [bytes] itself, if any.  A [Corrupt]
   verdict delivers a private copy, so the frame is carried by none. *)
let survive t route ~node ~from ~port ~owner ~delay bytes = function
  | Deliver | Duplicate -> schedule t route ~node ~from ~port ~owner ~delay bytes
  | Drop ->
    Obs.Metrics.incr t.stats.h_dropped_by_fault;
    fault_instant "fault.drop";
    carried_by_none
  | Delay extra ->
    Obs.Metrics.incr t.stats.h_delayed_by_fault;
    fault_instant "fault.delay";
    schedule t route ~node ~from ~port ~owner ~delay:(delay +. Float.max 0.0 extra) bytes
  | Corrupt ->
    Obs.Metrics.incr t.stats.h_corrupted_by_fault;
    fault_instant "fault.corrupt";
    let copy = corrupt_bytes (Sim.rng t.sim) bytes in
    ignore (schedule t route ~node ~from ~port ~owner:Unpooled ~delay copy);
    carried_by_none

(* Put one frame through the fault hook and schedule what survives.
   A [Duplicate] verdict delivers the frame and puts the extra copy
   through the hook once more (it may itself be dropped, delayed or
   corrupted); a [Duplicate] verdict on the copy is absorbed as
   [Deliver], so duplicate-of-duplicate storms are impossible.  A pooled
   frame that no delivery carries goes back to the pool here; when two
   deliveries carry it they share a count, and the last one returns it. *)
let send t route ~node ~from ~port ~pooled ~delay bytes =
  let owner = if pooled then Pooled else Unpooled in
  match verdict t route ~node ~from bytes with
  | Duplicate ->
    Obs.Metrics.incr t.stats.h_duplicated_by_fault;
    fault_instant "fault.duplicate";
    let first = schedule t route ~node ~from ~port ~owner ~delay bytes in
    let second =
      survive t route ~node ~from ~port ~owner ~delay:(delay +. duplicate_gap_ms) bytes
        (verdict t route ~node ~from bytes)
    in
    if pooled && second != carried_by_none then begin
      let shared = Shared { refs = 2 } in
      first.dv_owner <- shared;
      second.dv_owner <- shared
    end
  | v ->
    if survive t route ~node ~from ~port ~owner ~delay bytes v == carried_by_none && pooled
    then release_frame bytes

(* ------------------------------------------------------------------ *)
(* Data plane                                                           *)
(* ------------------------------------------------------------------ *)

let transmit ?(pooled = false) t ~from ~port bytes =
  let ports = t.ports.(from) in
  if port < 0 || port >= Array.length ports then
    (* unbound port: packet leaves the modelled network *)
    (if pooled then release_frame bytes)
  else begin
    let neighbor = ports.(port) in
    if t.node_down.(from) then (if pooled then release_frame bytes)
      (* a dead node emits nothing *)
    else if t.node_down.(neighbor) || t.port_down.(from).(port) then begin
      Obs.Metrics.incr t.stats.h_dropped_by_failure;
      if pooled then release_frame bytes
    end
    else
      send t Link ~node:neighbor ~from ~port:t.port_rx.(from).(port) ~pooled
        ~delay:t.port_delay.(from).(port) bytes
  end

(* Ingress port reported to a device for a host-injected packet.  Distinct
   from the resubmit pseudo-port (-1); devices translate it to their own
   host-facing pseudo ingress (e.g. [Switch.host_port]). *)
let port_host = -2

let host_inject ?(delay = 0.0) ?(pooled = false) t ~node bytes =
  Obs.Metrics.incr t.stats.h_data_injected;
  Obs.Flight_recorder.note ~now:(Sim.now t.sim) ~kind:Obs.Flight_recorder.k_inject
    ~node ~flow:(-1) ~a:(Bytes.length bytes) ~b:0;
  ignore
    (schedule t Host ~node ~from:(-1) ~port:port_host
       ~owner:(if pooled then Pooled else Unpooled) ~delay bytes)

let resubmit ?(pooled = false) t ~node bytes =
  Obs.Metrics.incr t.stats.h_resubmissions;
  ignore
    (schedule t Loop ~node ~from:node ~port:(-1)
       ~owner:(if pooled then Pooled else Unpooled) ~delay:t.cfg.resubmit_delay_ms bytes)

(* ------------------------------------------------------------------ *)
(* Control plane                                                        *)
(* ------------------------------------------------------------------ *)

let classify_control t bytes =
  match t.control_classifier with
  | None -> ()
  | Some f ->
    let kind = match f bytes with Some k when k > 0 && k < kind_space -> k | _ -> 0 in
    Obs.Metrics.incr t.stats.h_control_kind_tx.(kind)

let notify_controller ?(pooled = false) t ~from bytes =
  if t.node_down.(from) then begin
    Obs.Metrics.incr t.stats.h_dropped_by_failure;
    if pooled then release_frame bytes
  end
  else begin
    Obs.Metrics.incr t.stats.h_control_to_controller;
    classify_control t bytes;
    let uplink = sample_ctl_latency t ~node:from in
    send t Uplink ~node:(-1) ~from ~port:(-1) ~pooled ~delay:uplink bytes
  end

let controller_transmit ?(pooled = false) t ~to_ bytes =
  Obs.Metrics.incr t.stats.h_control_to_switch;
  classify_control t bytes;
  (* The controller's FIFO slot is paid once at send time; wire-level
     faults (including duplication) happen after the serialization
     point. *)
  let service_done = controller_slot t in
  let downlink = sample_ctl_latency t ~node:to_ in
  send t Downlink ~node:to_ ~from:(-1) ~port:(-1) ~pooled
    ~delay:(service_done +. downlink +. t.cfg.switch_processing_ms)
    bytes

let rule_update_delay t ~node =
  ignore node;
  match t.cfg.rule_update_mean_ms with
  | None -> 0.0
  | Some mean -> Sim.exponential t.sim ~mean

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let create ?(config = default_config) sim topo =
  let g = topo.Topologies.graph in
  let n = Graph.node_count g in
  let ports = Array.init n (fun node -> Array.of_list (Graph.neighbors g node)) in
  let metrics = Obs.Metrics.create () in
  let t =
    {
      sim;
      topo;
      cfg = config;
      ports;
      port_rx =
        Array.mapi
          (fun node nbs -> Array.map (fun nb -> port_of ports ~node:nb ~neighbor:node) nbs)
          ports;
      port_delay =
        Array.mapi
          (fun node nbs ->
            Array.map (fun nb -> Graph.latency g node nb +. config.switch_processing_ms) nbs)
          ports;
      port_down = Array.map (fun nbs -> Array.make (Array.length nbs) false) ports;
      data_handlers = Array.make n (fun ~port:_ _ -> ());
      control_handlers = Array.make n (fun _ -> ());
      controller_handler = None;
      data_fault = None;
      control_fault = None;
      control_classifier = None;
      flow_extractor = None;
      observers = [];
      topo_observers = [];
      node_down = Array.make n false;
      ctl_latency = compute_ctl_latencies topo config;
      controller_busy_until = 0.0;
      fire = ignore;
      metrics;
      stats = make_stats_handles metrics;
    }
  in
  t.fire <- fire_delivery t;
  t
