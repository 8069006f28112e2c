(** Wire formats of the P4Update protocol.

    Three header schemas ride behind a small ethernet-like base header:
    the control header [p4u] carrying FRM/UIM/UNM/UFM (§6), and the [data]
    header for flow traffic.  Records mirror the header fields so the rest
    of the code never touches raw field names. *)

(** {2 Constants} *)

val etype_control : int
val etype_data : int

val flow_space : int
(** Number of distinct flow ids (register array size), 1024. *)

val port_none : int
(** "no rule" egress-port value *)

val port_local : int
(** "deliver locally" egress-port value (flow egress) *)

(** {2 Message kinds (msg_type field)} *)

type msg_kind =
  | Frm
  | Uim
  | Unm
  | Ufm
  | Cln  (** rule-cleanup packet (§11) *)
  | Wdm
      (** withdraw: controller aborts an update; path switches discard the
          staged (uncommitted) state of [version_new].  Safe because old
          rules persist until final verification (DESIGN §11). *)

val msg_kind_to_int : msg_kind -> int
val msg_kind_of_int : int -> msg_kind option

(** {2 Update types} *)

type update_type = Sl | Dl

val update_type_to_int : update_type -> int
val update_type_of_int : int -> update_type option

(** {2 Node roles within an update (bit flags in the role field)} *)

val role_plain : int
val role_flow_egress : int
val role_flow_ingress : int
val role_segment_egress : int
val role_gateway : int

val role_committed : int
(** set in UNMs sent by a node that has already committed the update's
    version (used by the Appendix C consecutive-DL extension) *)

val role_two_phase : int
(** UIM flag: install into the tagged rule bank (2-phase commit, §11);
    forwarding only switches when the ingress starts stamping the new
    tag, giving Reitblatt-style per-packet consistency *)

(** {2 UFM status codes (layer field of an UFM)} *)

val ufm_success : int
val ufm_alarm_distance : int
val ufm_alarm_stale : int
val ufm_alarm_wait_budget : int
val ufm_alarm_timeout : int

(** {2 Schemas} *)

val eth_schema : P4rt.Header.schema
val p4u_schema : P4rt.Header.schema
val data_schema : P4rt.Header.schema

(** Parse graph for the whole protocol (start: eth; select on etype). *)
val parser : P4rt.Parser.t

(** {2 Control message view} *)

type control = {
  kind : msg_kind;
  flow_id : int;
  version_new : int;
  version_old : int;
  dist_new : int;
  dist_old : int;
  update_type : update_type;
  layer : int;
  counter : int;
  flow_size : int;  (** centi-units of link capacity *)
  egress_port : int;
  notify_port : int;
  role : int;
  src_node : int;
}

(** All-zero SL control record with the given kind; fill what you need. *)
val control_default : msg_kind -> control

val control_to_packet : control -> P4rt.Packet.t

(** Boxed decode (test oracle only; runtime code decodes with
    {!control_of_bytes}). *)
val control_of_packet : P4rt.Packet.t -> control option

(** {2 Data packet view} *)

type data = {
  d_flow_id : int;
  seq : int;
  ttl : int;
  origin : int;
  dst : int;  (** destination node id (what a real header's dst address encodes) *)
  tag : int;  (** 2-phase-commit version tag stamped by the ingress (0 = untagged) *)
  d_ts : int;
      (** ingress timestamp in simulated µs, stamped at injection (0 = unset);
          32 bits cover ~71 min of simulated time *)
}

val data_to_packet : data -> P4rt.Packet.t

(** Boxed decode (test oracle only; runtime code decodes with
    {!data_of_bytes}). *)
val data_of_packet : P4rt.Packet.t -> data option

(** Serialize helpers (deparse to bytes): direct byte stores into a
    buffer from [Netsim.take_frame], byte-identical to
    {!control_to_packet} / {!data_to_packet} + [Packet.serialize]. *)
val control_to_bytes : control -> Bytes.t
val data_to_bytes : data -> Bytes.t

(** Parse raw bytes with {!parser} (None on parse failure).  Together
    with {!control_of_packet} / {!data_of_packet} this is the boxed
    decode path, kept only as the oracle the tests compare the direct
    decoders against: nothing in the libraries calls it. *)
val packet_of_bytes : Bytes.t -> P4rt.Packet.t option

(** {2 Wire codec}

    Both wire formats are fully byte-aligned, so frames have fixed
    sizes (control 28 bytes, data 22) and fixed field offsets.
    {!control_to_bytes} / {!data_to_bytes} encode with direct byte
    stores into pooled buffers and {!control_of_bytes} /
    {!data_of_bytes} decode without running the parse graph; they are
    the only codec at runtime, on the switch path (ingress decode and
    {!data_forward_bytes}) and in every harness, baseline and observer.
    Every wire image and decode verdict is identical to the boxed
    Packet/Header path (enforced by qcheck equivalence properties
    against {!control_to_bytes_boxed} / {!data_to_bytes_boxed} and
    {!packet_of_bytes}). *)

val control_bytes_len : int
(** Exact control frame size, 28. *)

val data_bytes_len : int
(** Exact data frame size, 22. *)

(** [control_of_bytes b] / [data_of_bytes b]: direct decode; [None] on
    short frames, foreign etypes or invalid msg_type / update_type,
    exactly like [packet_of_bytes] + [*_of_packet]. *)
val control_of_bytes : Bytes.t -> control option

val data_of_bytes : Bytes.t -> data option

(** [data_seq b] / [data_flow b]: the [seq] / [d_flow_id] field of [b]
    read in place, or [-1] when {!data_of_bytes} would return [None].
    For per-hop observers that need only these two fields. *)
val data_seq : Bytes.t -> int

val data_flow : Bytes.t -> int

(** [data_forward_bytes frame ~ttl ~tag] is the frame a switch forwards
    for the data frame [frame]: a copy with [ttl] and [tag] patched,
    trailing payload included.  Byte-identical to parsing [frame],
    [Packet.update]-ing the [data] header's ttl and tag and
    [Packet.serialize] (qcheck-pinned).  The copy comes from the
    frame pool ([Netsim.take_frame]); [frame] must decode with
    {!data_of_bytes}. *)
val data_forward_bytes : Bytes.t -> ttl:int -> tag:int -> Bytes.t

(** Message kind of a valid control frame (for
    [Netsim.set_control_classifier]) without materializing the record;
    same verdicts as the full-parse classifier on any byte string. *)
val control_kind_of_bytes : Bytes.t -> int option

(** Reference codecs on the boxed Packet/Header path: the baseline side
    of the bench wire-encode rows and the oracle for the
    codec-equivalence qcheck.  Not used at runtime. *)
val control_to_bytes_boxed : control -> Bytes.t

val data_to_bytes_boxed : data -> Bytes.t


val pp_control : Format.formatter -> control -> unit

(** {2 Trace anchor keys}

    The wire format cannot carry trace span ids, so the instrumentation in
    {!Controller} and {!Switch} hands spans across messages through the
    sink's anchor table under these keys (see [Obs.Trace]). *)

val span_key_update : flow_id:int -> version:int -> string
val span_key_uim : flow_id:int -> version:int -> node:int -> string
val span_key_unm : flow_id:int -> version:int -> node:int -> string
val span_key_ufm : flow_id:int -> version:int -> node:int -> string
