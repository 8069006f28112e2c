(* Sharded coordinator: k controller replicas over one network.

   Flow ownership is by source domain: a flow lives in exactly the shard
   owning [Partition.domain_of p src].  The coordinator

   - re-points the network's single control-channel handler at a router
     that parses each FRM/UFM once and dispatches to the owning shard's
     [Controller.handle] (UFMs to the shard holding the flow, FRMs to
     the shard owning the reporting flow's source, unless another shard
     already holds the reported id);

   - routes prepare/push/abort/retire calls the same way, so every
     replica only ever touches its own Flow DB slice;

   - stitches cross-domain updates with DL labels: when a new path
     leaves the owning domain and the flow's last update was not DL
     (Thm. 4 forbids consecutive DL), the update is forced dual-layer so
     the §4 version-downgrade rules at the DL segment gateways are the
     inter-shard consistency contract — switches in a foreign domain
     verify locally against the labels, no shard-to-shard chatter.
     A cross-domain path whose flow just rode a DL update takes the
     §7.5 default (SL), which is globally verifiable hop-by-hop anyway.

   A batch is prepared shard slice by shard slice in the calling domain,
   each slice in request order. *)

module C = P4update.Controller
module Wire = P4update.Wire

type t = {
  sd_net : Netsim.t;
  sd_partition : Partition.t;
  sd_shards : Shard.t array;
}

let shard_count t = Array.length t.sd_shards
let partition t = t.sd_partition
let shard t i = t.sd_shards.(i)
let controller t i = Shard.controller t.sd_shards.(i)

let owner_of_node t node =
  if node >= 0 && node < Topo.Graph.node_count (Netsim.graph t.sd_net) then
    Partition.domain_of t.sd_partition node
  else 0

(* O(k) ownership scan; k is small (controller replicas, not nodes). *)
let owner_of_flow t ~flow_id =
  let k = shard_count t in
  let rec go i =
    if i >= k then None
    else if C.find_flow (controller t i) ~flow_id <> None then Some i
    else go (i + 1)
  in
  go 0

let route t ~from bytes =
  match Wire.control_of_bytes bytes with
  | Some c when c.Wire.kind = Wire.Ufm ->
    let owner =
      match owner_of_flow t ~flow_id:c.Wire.flow_id with
      | Some i -> i
      | None -> owner_of_node t from
    in
    Shard.note_routed t.sd_shards.(owner);
    C.handle (controller t owner) ~from bytes
  | Some c when c.Wire.kind = Wire.Frm -> (
    let owner = owner_of_node t c.Wire.src_node in
    Shard.note_routed t.sd_shards.(owner);
    (* Ids share one wire space: a flow another shard holds is not new. *)
    match owner_of_flow t ~flow_id:c.Wire.flow_id with
    | Some i when i <> owner -> ()
    | Some _ | None -> C.handle (controller t owner) ~from bytes)
  | Some _ | None -> ()

let install_router t = Netsim.set_controller t.sd_net (route t)

let create net partition =
  let k = Partition.domains partition in
  let shards =
    Array.init k (fun i ->
        Shard.create net ~id:i ~nodes:(Partition.nodes_of partition i))
  in
  let t = { sd_net = net; sd_partition = partition; sd_shards = shards } in
  (* Each Controller.create above grabbed the network handler; the router
     must be installed last so it owns dispatch. *)
  install_router t;
  t

(* {2 Flow DB operations} *)

(* Flow ids share one wire space across replicas, so an id any shard
   holds is taken. *)
let register_flow ?version ?flow_id t ~src ~dst ~size ~path =
  let flow_id =
    match flow_id with Some id -> id | None -> C.flow_id_of_pair ~src ~dst
  in
  if owner_of_flow t ~flow_id <> None then
    invalid_arg (Printf.sprintf "Sharded.register_flow: flow id %d is taken" flow_id);
  let ctrl = controller t (owner_of_node t src) in
  C.register_flow ?version ~flow_id ctrl ~src ~dst ~size ~path

let find_flow t ~flow_id =
  let k = shard_count t in
  let rec go i =
    if i >= k then None
    else
      match C.find_flow (controller t i) ~flow_id with
      | Some f -> Some f
      | None -> go (i + 1)
  in
  go 0

let flows t =
  Array.to_list t.sd_shards
  |> List.concat_map (fun sh -> C.flows (Shard.controller sh))
  |> List.sort (fun (a : C.flow) b -> compare a.C.flow_id b.C.flow_id)

let retire_flow t ~flow_id =
  Array.iter (fun sh -> C.retire_flow (Shard.controller sh) ~flow_id) t.sd_shards

(* {2 Preparation with gateway stitching} *)

(* Force DL when the new path leaves the owning domain and Thm. 4 allows
   it; [None] falls through to the §7.5 policy. *)
let stitch_type t ctrl ~flow_id ~new_path =
  match C.find_flow ctrl ~flow_id with
  | Some f
    when f.C.last_type <> Wire.Dl && Partition.crosses t.sd_partition new_path
    ->
    Some Wire.Dl
  | _ -> None

let prepare_on t shard ~flow_id ~new_path ?update_type () =
  let ctrl = Shard.controller shard in
  let update_type =
    match update_type with
    | Some _ -> update_type
    | None -> stitch_type t ctrl ~flow_id ~new_path
  in
  let p = C.prepare ctrl ~flow_id ~new_path ?update_type () in
  (p, update_type <> None)

let note_prepare shard ~cross =
  Shard.note_prepared shard;
  if cross then Shard.note_cross shard

let owner_or_fail t ~flow_id ~what =
  match owner_of_flow t ~flow_id with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Sharded.%s: unknown flow %d" what flow_id)

let prepare t ~flow_id ~new_path ?update_type () =
  let shard = t.sd_shards.(owner_or_fail t ~flow_id ~what:"prepare") in
  let p, cross = prepare_on t shard ~flow_id ~new_path ?update_type () in
  note_prepare shard ~cross;
  p

let prepare_batch t requests =
  let per_shard = Array.make (shard_count t) [] in
  List.iteri
    (fun idx (flow_id, new_path) ->
      let owner = owner_or_fail t ~flow_id ~what:"prepare_batch" in
      per_shard.(owner) <- (idx, flow_id, new_path) :: per_shard.(owner))
    requests;
  (* Prepare slice by slice, then stitch back into request order. *)
  let out = Array.make (List.length requests) None in
  Array.iteri
    (fun i items ->
      let sh = t.sd_shards.(i) in
      List.iter
        (fun (idx, flow_id, new_path) ->
          let p, cross = prepare_on t sh ~flow_id ~new_path () in
          note_prepare sh ~cross;
          out.(idx) <- Some p)
        (List.rev items))
    per_shard;
  Array.to_list out |> List.filter_map Fun.id

(* {2 Update execution} *)

let push t (p : C.prepared) =
  let owner = owner_or_fail t ~flow_id:p.C.p_flow ~what:"push" in
  C.push (controller t owner) p;
  Shard.note_pushed t.sd_shards.(owner)

let update_flow t ~flow_id ~new_path ?update_type () =
  let p = prepare t ~flow_id ~new_path ?update_type () in
  push t p;
  p.C.p_version

let abort_update ?reason t ~flow_id =
  match owner_of_flow t ~flow_id with
  | Some i -> C.abort_update ?reason (controller t i) ~flow_id
  | None -> false

let aborted_version t ~flow_id =
  let k = shard_count t in
  let rec go i =
    if i >= k then None
    else
      match C.aborted_version (controller t i) ~flow_id with
      | Some v -> Some v
      | None -> go (i + 1)
  in
  go 0

(* {2 Reports, recovery, fingerprints} *)

let on_push t f = Array.iter (fun sh -> C.on_push (Shard.controller sh) f) t.sd_shards
let on_report t f = Array.iter (fun sh -> C.on_report (Shard.controller sh) f) t.sd_shards

let completion_time t ~flow_id ~version =
  let k = shard_count t in
  let rec go i =
    if i >= k then None
    else
      match C.completion_time (controller t i) ~flow_id ~version with
      | Some ts -> Some ts
      | None -> go (i + 1)
  in
  go 0

let enable_recovery ?timeout_ms ?max_retries ?deadline_ms t =
  (* The recovery.* counters live in the shared network registry and the
     registry is get-or-create, so all replicas share one set — stats
     read from any shard are the aggregate.  Each replica's topology
     observer reroutes only flows in its own slice. *)
  Array.iter
    (fun sh ->
      C.enable_recovery ?timeout_ms ?max_retries ?deadline_ms (Shard.controller sh))
    t.sd_shards

let recovery_stats t = C.recovery_stats (controller t 0)

let alarm_count t =
  Array.fold_left (fun acc sh -> acc + C.alarm_count (Shard.controller sh)) 0 t.sd_shards

let fingerprint t =
  Array.fold_left
    (fun acc sh -> (acc * 8191) lxor C.fingerprint (Shard.controller sh))
    (Partition.fingerprint t.sd_partition)
    t.sd_shards

(* {2 The Control_plane view} *)

let plane t =
  {
    Plane.shards = shard_count t;
    controllers = Array.map Shard.controller t.sd_shards;
    partition = Some t.sd_partition;
    shard_of_node = (fun node -> owner_of_node t node);
    register_flow =
      (fun ?version ?flow_id ~src ~dst ~size ~path () ->
        register_flow ?version ?flow_id t ~src ~dst ~size ~path);
    find_flow = (fun ~flow_id -> find_flow t ~flow_id);
    flows = (fun () -> flows t);
    retire_flow = (fun ~flow_id -> retire_flow t ~flow_id);
    prepare =
      (fun ~flow_id ~new_path ?update_type () ->
        prepare t ~flow_id ~new_path ?update_type ());
    prepare_batch = (fun reqs -> prepare_batch t reqs);
    push = (fun p -> push t p);
    update_flow =
      (fun ~flow_id ~new_path ?update_type () ->
        update_flow t ~flow_id ~new_path ?update_type ());
    abort_update = (fun ?reason ~flow_id () -> abort_update ?reason t ~flow_id);
    aborted_version = (fun ~flow_id -> aborted_version t ~flow_id);
    on_push = (fun f -> on_push t f);
    on_report = (fun f -> on_report t f);
    completion_time = (fun ~flow_id ~version -> completion_time t ~flow_id ~version);
    enable_recovery =
      (fun ?timeout_ms ?max_retries ?deadline_ms () ->
        enable_recovery ?timeout_ms ?max_retries ?deadline_ms t);
    recovery_stats = (fun () -> recovery_stats t);
    alarm_count = (fun () -> alarm_count t);
    fingerprint = (fun () -> fingerprint t);
  }
