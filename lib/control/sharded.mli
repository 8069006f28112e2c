(** Sharded coordinator: k controller replicas over one network
    (DESIGN §13).

    Flow ownership is by source domain.  The coordinator re-points the
    network's single control-channel handler at a router dispatching
    each FRM/UFM to the owning shard's {!P4update.Controller.handle},
    routes prepare/push/abort calls the same way, and stitches
    cross-domain updates with DL labels (forced dual-layer when Thm. 4
    allows) so the §4 version-downgrade rules at DL segment gateways are
    the inter-shard consistency contract.  Everything runs in the calling
    domain. *)

type t

val create : Netsim.t -> Partition.t -> t
(** Builds one replica per domain and installs the routing handler
    (replacing whatever {!Netsim.set_controller} held). *)

val shard_count : t -> int
val partition : t -> Partition.t
val shard : t -> int -> Shard.t
val controller : t -> int -> P4update.Controller.t

val owner_of_node : t -> int -> int
(** Owning shard of a node (0 for out-of-range ids). *)

val owner_of_flow : t -> flow_id:int -> int option
(** Shard whose Flow DB holds the flow, if any. *)

val register_flow :
  ?version:int ->
  ?flow_id:int ->
  t ->
  src:int ->
  dst:int ->
  size:int ->
  path:int list ->
  P4update.Controller.flow
(** Registers with the shard owning [src].  Raises [Invalid_argument]
    when any shard already holds the id: ids share one wire space. *)

val find_flow : t -> flow_id:int -> P4update.Controller.flow option
val flows : t -> P4update.Controller.flow list
val retire_flow : t -> flow_id:int -> unit

val prepare :
  t ->
  flow_id:int ->
  new_path:int list ->
  ?update_type:P4update.Wire.update_type ->
  unit ->
  P4update.Controller.prepared
(** Prepares on the owning shard; a cross-domain path is forced
    dual-layer when the flow's last update was not DL.  Raises
    [Invalid_argument] on an unknown flow. *)

val prepare_batch :
  t -> (int * int list) list -> P4update.Controller.prepared list
(** Per-request routing + stitching as {!prepare}; results in request
    order.  Shard slices are prepared one after another (shard 0 first),
    each slice in request order. *)

val push : t -> P4update.Controller.prepared -> unit

val update_flow :
  t ->
  flow_id:int ->
  new_path:int list ->
  ?update_type:P4update.Wire.update_type ->
  unit ->
  int

val abort_update : ?reason:string -> t -> flow_id:int -> bool
val aborted_version : t -> flow_id:int -> int option
val on_push : t -> (flow_id:int -> version:int -> unit) -> unit
val on_report : t -> (P4update.Controller.report -> unit) -> unit
val completion_time : t -> flow_id:int -> version:int -> float option

val enable_recovery :
  ?timeout_ms:float -> ?max_retries:int -> ?deadline_ms:float -> t -> unit
(** Enables the §11 loop on every replica.  The [recovery.*] counters
    live in the shared network registry (get-or-create), so stats read
    from any shard are the aggregate across replicas. *)

val recovery_stats : t -> P4update.Controller.recovery_stats option
val alarm_count : t -> int

val fingerprint : t -> int
(** Combines every replica's fingerprint with the partition digest. *)

val plane : t -> Plane.t
(** The {!Plane} (Control_plane) view of this coordinator. *)
