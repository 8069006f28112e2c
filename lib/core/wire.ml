module Header = P4rt.Header
module Packet = P4rt.Packet
module Parser = P4rt.Parser

let etype_control = 0x88B5
let etype_data = 0x0800
let flow_space = 1024
let port_none = 255
let port_local = 254

type msg_kind = Frm | Uim | Unm | Ufm | Cln | Wdm

let msg_kind_to_int = function
  | Frm -> 1 | Uim -> 2 | Unm -> 3 | Ufm -> 4 | Cln -> 5 | Wdm -> 6

let msg_kind_of_int = function
  | 1 -> Some Frm
  | 2 -> Some Uim
  | 3 -> Some Unm
  | 4 -> Some Ufm
  | 5 -> Some Cln
  | 6 -> Some Wdm
  | _ -> None

type update_type = Sl | Dl

let update_type_to_int = function Sl -> 1 | Dl -> 2
let update_type_of_int = function 1 -> Some Sl | 2 -> Some Dl | _ -> None

let role_plain = 0
let role_flow_egress = 1
let role_flow_ingress = 2
let role_segment_egress = 4
let role_gateway = 8
let role_committed = 16
let role_two_phase = 32

let ufm_success = 0
let ufm_alarm_distance = 1
let ufm_alarm_stale = 2
let ufm_alarm_wait_budget = 3
let ufm_alarm_timeout = 4

let eth_schema =
  Header.define ~name:"eth" [ ("dst", 16); ("src", 16); ("etype", 16) ]

let p4u_schema =
  Header.define ~name:"p4u"
    [
      ("msg_type", 8);
      ("flow_id", 16);
      ("version_new", 16);
      ("version_old", 16);
      ("dist_new", 16);
      ("dist_old", 16);
      ("update_type", 8);
      ("layer", 8);
      ("counter", 16);
      ("flow_size", 16);
      ("egress_port", 8);
      ("notify_port", 8);
      ("role", 8);
      ("src_node", 16);
    ]

let data_schema =
  Header.define ~name:"data"
    [
      ("flow_id", 16); ("seq", 32); ("ttl", 8); ("origin", 8); ("dst", 16); ("tag", 16);
      ("ts", 32);
    ]

let parser =
  Parser.create
    [
      {
        Parser.state_name = "start";
        extracts = Some eth_schema;
        transition =
          Select
            ( "etype",
              [ (etype_control, "p4u"); (etype_data, "data") ],
              Accept );
      };
      { Parser.state_name = "p4u"; extracts = Some p4u_schema; transition = Accept };
      { Parser.state_name = "data"; extracts = Some data_schema; transition = Accept };
    ]

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
  flow_size : int;
  egress_port : int;
  notify_port : int;
  role : int;
  src_node : int;
}

let control_default kind =
  {
    kind;
    flow_id = 0;
    version_new = 0;
    version_old = 0;
    dist_new = 0;
    dist_old = 0;
    update_type = Sl;
    layer = 0;
    counter = 0;
    flow_size = 0;
    egress_port = port_none;
    notify_port = port_none;
    role = role_plain;
    src_node = 0;
  }

let eth_header ~etype =
  let h = Header.make eth_schema in
  Header.set h "etype" etype

let control_to_packet c =
  let h = Header.make p4u_schema in
  let h = Header.set h "msg_type" (msg_kind_to_int c.kind) in
  let h = Header.set h "flow_id" c.flow_id in
  let h = Header.set h "version_new" c.version_new in
  let h = Header.set h "version_old" c.version_old in
  let h = Header.set h "dist_new" c.dist_new in
  let h = Header.set h "dist_old" c.dist_old in
  let h = Header.set h "update_type" (update_type_to_int c.update_type) in
  let h = Header.set h "layer" c.layer in
  let h = Header.set h "counter" c.counter in
  let h = Header.set h "flow_size" c.flow_size in
  let h = Header.set h "egress_port" c.egress_port in
  let h = Header.set h "notify_port" c.notify_port in
  let h = Header.set h "role" c.role in
  let h = Header.set h "src_node" c.src_node in
  Packet.make [ eth_header ~etype:etype_control; h ]

let control_of_packet pkt =
  match Packet.header pkt "p4u" with
  | None -> None
  | Some h ->
    (match
       ( msg_kind_of_int (Header.get h "msg_type"),
         update_type_of_int (Header.get h "update_type") )
     with
     | Some kind, Some update_type ->
       Some
         {
           kind;
           flow_id = Header.get h "flow_id";
           version_new = Header.get h "version_new";
           version_old = Header.get h "version_old";
           dist_new = Header.get h "dist_new";
           dist_old = Header.get h "dist_old";
           update_type;
           layer = Header.get h "layer";
           counter = Header.get h "counter";
           flow_size = Header.get h "flow_size";
           egress_port = Header.get h "egress_port";
           notify_port = Header.get h "notify_port";
           role = Header.get h "role";
           src_node = Header.get h "src_node";
         }
     | _ -> None)

type data = {
  d_flow_id : int;
  seq : int;
  ttl : int;
  origin : int;
  dst : int;
  tag : int;
  d_ts : int;
}

let data_to_packet d =
  let h = Header.make data_schema in
  let h = Header.set h "flow_id" d.d_flow_id in
  let h = Header.set h "seq" d.seq in
  let h = Header.set h "ttl" d.ttl in
  let h = Header.set h "origin" d.origin in
  let h = Header.set h "dst" d.dst in
  let h = Header.set h "tag" d.tag in
  let h = Header.set h "ts" d.d_ts in
  Packet.make [ eth_header ~etype:etype_data; h ]

let data_of_packet pkt =
  match Packet.header pkt "data" with
  | None -> None
  | Some h ->
    Some
      {
        d_flow_id = Header.get h "flow_id";
        seq = Header.get h "seq";
        ttl = Header.get h "ttl";
        origin = Header.get h "origin";
        dst = Header.get h "dst";
        tag = Header.get h "tag";
        d_ts = Header.get h "ts";
      }

let packet_of_bytes bytes =
  match Parser.run parser bytes with
  | pkt -> Some pkt
  | exception Parser.Parse_error _ -> None

(* ---- wire codec ------------------------------------------------------ *)

(* Both wire formats are fully byte-aligned (every field width is a
   multiple of 8), so a control frame is exactly 28 bytes (eth 6 + p4u
   22) and a data frame 22 (eth 6 + data 16) at fixed offsets.  The
   runtime codec encodes/decodes with direct byte stores against that
   layout — the same image [Header.emit] produces — skipping the whole
   Packet/Header machinery, and draws its buffers from [Netsim]'s frame
   pool so a steady stream of messages stops boxing one packet, fifteen
   header copies and one fresh byte buffer per send. *)

let control_bytes_len = 6 + Header.byte_size p4u_schema
let data_bytes_len = 6 + Header.byte_size data_schema

(* Direct MSB-first byte accessors.  Stores mask exactly like
   [Header.set] ([v land (2^w - 1)]): the per-byte [land 0xff] keeps
   only the low [w] bits across the [w/8] stores. *)

let[@inline] put8 b pos v = Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff))

let[@inline] put16 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr (v land 0xff))

let[@inline] put32 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr (v land 0xff))

let[@inline] get8 b pos = Char.code (Bytes.unsafe_get b pos)

let[@inline] get16 b pos =
  (Char.code (Bytes.unsafe_get b pos) lsl 8) lor Char.code (Bytes.unsafe_get b (pos + 1))

let[@inline] get32 b pos =
  (Char.code (Bytes.unsafe_get b pos) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (pos + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (pos + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (pos + 3))

(* Fixed byte offsets (eth: dst@0 src@2 etype@4; payload header at 6). *)

let control_write b (c : control) =
  put16 b 0 0;
  put16 b 2 0;
  put16 b 4 etype_control;
  put8 b 6 (msg_kind_to_int c.kind);
  put16 b 7 c.flow_id;
  put16 b 9 c.version_new;
  put16 b 11 c.version_old;
  put16 b 13 c.dist_new;
  put16 b 15 c.dist_old;
  put8 b 17 (update_type_to_int c.update_type);
  put8 b 18 c.layer;
  put16 b 19 c.counter;
  put16 b 21 c.flow_size;
  put8 b 23 c.egress_port;
  put8 b 24 c.notify_port;
  put8 b 25 c.role;
  put16 b 26 c.src_node

let data_write b (d : data) =
  put16 b 0 0;
  put16 b 2 0;
  put16 b 4 etype_data;
  put16 b 6 d.d_flow_id;
  put32 b 8 d.seq;
  put8 b 12 d.ttl;
  put8 b 13 d.origin;
  put16 b 14 d.dst;
  put16 b 16 d.tag;
  put32 b 18 d.d_ts

(* Reference codecs over the boxed Packet path: the bench wire rows and
   the codec-equivalence qcheck call them by name. *)
let control_to_bytes_boxed c = Packet.serialize (control_to_packet c)
let data_to_bytes_boxed d = Packet.serialize (data_to_packet d)

let control_to_bytes c =
  let b = Netsim.take_frame control_bytes_len in
  control_write b c;
  b

let data_to_bytes d =
  let b = Netsim.take_frame data_bytes_len in
  data_write b d;
  b

(* A forwarded data frame: the ingress frame with ttl (byte 12) and tag
   (bytes 16-17) patched — exactly the image of [Packet.update pkt "data"]
   setting both fields + [Packet.serialize], because every field is
   byte-aligned and re-emits as it was read.  Trailing payload is copied
   too. *)
let data_forward_bytes src ~ttl ~tag =
  let len = Bytes.length src in
  let b = Netsim.take_frame len in
  Bytes.blit src 0 b 0 len;
  put8 b 12 ttl;
  put16 b 16 tag;
  b

(* Direct decoders replicating Parser.run ∘ of_packet exactly: a frame
   shorter than its format, a foreign etype, or an invalid msg_type /
   update_type decodes to [None] either way. *)

let control_of_bytes bytes =
  if Bytes.length bytes < control_bytes_len || get16 bytes 4 <> etype_control then None
  else
    match (msg_kind_of_int (get8 bytes 6), update_type_of_int (get8 bytes 17)) with
    | Some kind, Some update_type ->
      Some
        {
          kind;
          flow_id = get16 bytes 7;
          version_new = get16 bytes 9;
          version_old = get16 bytes 11;
          dist_new = get16 bytes 13;
          dist_old = get16 bytes 15;
          update_type;
          layer = get8 bytes 18;
          counter = get16 bytes 19;
          flow_size = get16 bytes 21;
          egress_port = get8 bytes 23;
          notify_port = get8 bytes 24;
          role = get8 bytes 25;
          src_node = get16 bytes 26;
        }
    | _ -> None

let data_of_bytes bytes =
  if Bytes.length bytes < data_bytes_len || get16 bytes 4 <> etype_data then None
  else
    Some
      {
        d_flow_id = get16 bytes 6;
        seq = get32 bytes 8;
        ttl = get8 bytes 12;
        origin = get8 bytes 13;
        dst = get16 bytes 14;
        tag = get16 bytes 16;
        d_ts = get32 bytes 18;
      }

let is_data_frame bytes =
  Bytes.length bytes >= data_bytes_len && get16 bytes 4 = etype_data

let data_seq bytes = if is_data_frame bytes then get32 bytes 8 else -1
let data_flow bytes = if is_data_frame bytes then get16 bytes 6 else -1

(* Classifier for [Netsim.set_control_classifier]: the message kind of a
   valid control frame without materializing the record.  Semantics
   match the full-parse classifier (including the update_type validity
   check) for any byte string. *)
let control_kind_of_bytes bytes =
  if Bytes.length bytes < control_bytes_len || get16 bytes 4 <> etype_control then None
  else
    match (msg_kind_of_int (get8 bytes 6), update_type_of_int (get8 bytes 17)) with
    | Some kind, Some _ -> Some (msg_kind_to_int kind)
    | _ -> None

let pp_control fmt c =
  let kind_name = function
    | Frm -> "FRM" | Uim -> "UIM" | Unm -> "UNM" | Ufm -> "UFM" | Cln -> "CLN"
    | Wdm -> "WDM"
  in
  Format.fprintf fmt
    "%s{flow=%d Vn=%d Vo=%d Dn=%d Do=%d type=%s layer=%d C=%d size=%d egr=%d ntf=%d role=%d \
     src=%d}"
    (kind_name c.kind) c.flow_id c.version_new c.version_old c.dist_new c.dist_old
    (match c.update_type with Sl -> "SL" | Dl -> "DL")
    c.layer c.counter c.flow_size c.egress_port c.notify_port c.role c.src_node

(* Trace anchor keys (span handoff across messages; see the mli). *)
let span_key_update ~flow_id ~version = Printf.sprintf "update:%d:%d" flow_id version
let span_key_uim ~flow_id ~version ~node = Printf.sprintf "uim:%d:%d:%d" flow_id version node
let span_key_unm ~flow_id ~version ~node = Printf.sprintf "unm:%d:%d:%d" flow_id version node
let span_key_ufm ~flow_id ~version ~node = Printf.sprintf "ufm:%d:%d:%d" flow_id version node
