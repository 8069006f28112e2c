(** BMv2-style pipeline: parser → ingress control → egress control →
    deparser, with the v1model primitives P4Update relies on: register
    access, table application, [clone], [resubmit] and controller digests.

    A program is a pair of control functions over a per-packet context.
    Registers and tables are created by the program author and registered
    here so the control plane can reach them by name.

    Admission walks the parse graph without building anything
    ({!Parser.admit}); the boxed {!packet} and the metadata table are
    built only when a control block asks for them.  A program that reads
    the frame itself ({!ingress_bytes}) and writes its output frame
    itself ({!set_output}) runs without either. *)

type instance_kind = Normal | Cloned | Resubmitted

(** Per-packet context.  Metadata is refreshed for each packet (§2.1);
    registers persist in the enclosing pipeline. *)
type ctx

type program = {
  prog_parser : Parser.t;
  prog_ingress : ctx -> unit;
  prog_egress : ctx -> unit;
}

type t

(** One emitted frame.  [bytes] is fresh for every emission (a raw
    output or a deparsed packet) and belongs to the caller. *)
type emission = { out_port : int; bytes : Bytes.t }

type outcome = {
  emissions : emission list;
  resubmitted : Packet.t option;
  to_controller : Packet.t list;
}

val create :
  name:string ->
  registers:Register.t list ->
  tables:Table.t list ->
  program ->
  t

val name : t -> string

(** {2 Context operations (for use inside control functions)} *)

(** The packet as it stands: the parse of the raw output frame when one
    is set, else of the ingress frame.  Parsed on first use and cached;
    never called, never built. *)
val packet : ctx -> Packet.t

(** Replace the packet; egress deparses it.  Clears a raw output. *)
val set_packet : ctx -> Packet.t -> unit

(** The frame as it entered the pipeline (already admitted by the
    parser).  Owned by the caller of {!process}: read it during the
    control block, never keep it or emit it. *)
val ingress_bytes : ctx -> Bytes.t

(** [set_output ctx bytes] makes [bytes] the frame egress emits,
    verbatim, with no deparse; it replaces the packet ({!packet} then
    parses [bytes]).  Ownership: [bytes] must be fresh — not the ingress
    frame, not shared with anything else — because it passes to the
    caller of {!process} in {!emission}, which may recycle it once its
    last delivery is done (the P4Update switch returns it to the wire
    pool).  A clone of the packet emits its own copy. *)
val set_output : ctx -> Bytes.t -> unit

val ingress_port : ctx -> int
val instance : ctx -> instance_kind

(** Per-packet scratch metadata (the table is created on the first
    [meta_set]; [meta_get] of an unset key is 0). *)
val meta_get : ctx -> string -> int
val meta_set : ctx -> string -> int -> unit

val set_egress : ctx -> int -> unit
val egress_spec : ctx -> int option
val mark_to_drop : ctx -> unit

(** [clone ctx ~session] emits a copy of the packet (as it stands at the
    end of ingress) through the egress control toward the port bound to
    [session]. *)
val clone : ctx -> session:int -> unit

(** Re-inject the current packet into the ingress pipeline (the waiting
    loop of §8).  The surrounding network layer applies the resubmission
    delay. *)
val resubmit : ctx -> unit

(** Punt a copy of the current packet to the controller (CPU port). *)
val digest : ctx -> unit

(** {2 Control-plane API} *)

val register : t -> string -> Register.t
val table : t -> string -> Table.t

(** [set_clone_session t ~session ~port] binds a clone session id to an
    output port (the one-to-one port-based clone table of §8). *)
val set_clone_session : t -> session:int -> port:int -> unit

(** {2 Execution} *)

(** [process t ~ingress_port ?instance bytes] runs one packet through the
    whole pipeline.  Parse errors (the {!Parser.admit} verdict, counted
    in [p4rt.parser.errors]) yield an empty outcome (packet dropped), as
    a real switch would discard a malformed frame.  Traced runs open one
    [p4rt/pipeline.process] span per call. *)
val process : t -> ingress_port:int -> ?instance:instance_kind -> Bytes.t -> outcome
