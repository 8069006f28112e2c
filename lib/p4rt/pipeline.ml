type instance_kind = Normal | Cloned | Resubmitted

(* The packet is materialized only on demand: [pkt] is [None] until a
   control block asks for [packet], and then holds the parse of the
   current frame ([out] when set, else [ingress]).  [egress] is -1 while
   unset. *)
type ctx = {
  parser : Parser.t;
  ingress : Bytes.t;
  mutable pkt : Packet.t option;
  mutable out : Bytes.t option; (* raw output frame, emitted verbatim *)
  in_port : int;
  kind : instance_kind;
  mutable meta : (string, int) Hashtbl.t option;
  mutable egress : int;
  mutable dropped : bool;
  mutable clones : int list; (* clone sessions requested during ingress *)
  mutable wants_resubmit : bool;
  mutable digests : Packet.t list;
}

type program = {
  prog_parser : Parser.t;
  prog_ingress : ctx -> unit;
  prog_egress : ctx -> unit;
}

type t = {
  pipe_name : string;
  program : program;
  registers : (string, Register.t) Hashtbl.t;
  tables : (string, Table.t) Hashtbl.t;
  clone_sessions : (int, int) Hashtbl.t;
}

type emission = { out_port : int; bytes : Bytes.t }

type outcome = {
  emissions : emission list;
  resubmitted : Packet.t option;
  to_controller : Packet.t list;
}

let create ~name ~registers ~tables program =
  let reg_table = Hashtbl.create 16 and tab_table = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace reg_table (Register.name r) r) registers;
  List.iter (fun tb -> Hashtbl.replace tab_table (Table.name tb) tb) tables;
  {
    pipe_name = name;
    program;
    registers = reg_table;
    tables = tab_table;
    clone_sessions = Hashtbl.create 8;
  }

let name t = t.pipe_name

let packet ctx =
  match ctx.pkt with
  | Some pkt -> pkt
  | None ->
    let frame = match ctx.out with Some b -> b | None -> ctx.ingress in
    let pkt = Parser.run ctx.parser frame in
    ctx.pkt <- Some pkt;
    pkt

let set_packet ctx pkt =
  ctx.pkt <- Some pkt;
  ctx.out <- None

let ingress_bytes ctx = ctx.ingress

let set_output ctx bytes =
  ctx.out <- Some bytes;
  ctx.pkt <- None

let ingress_port ctx = ctx.in_port
let instance ctx = ctx.kind

let meta_get ctx key =
  match ctx.meta with
  | None -> 0
  | Some meta -> Option.value (Hashtbl.find_opt meta key) ~default:0

let meta_set ctx key v =
  match ctx.meta with
  | Some meta -> Hashtbl.replace meta key v
  | None ->
    let meta = Hashtbl.create 8 in
    Hashtbl.replace meta key v;
    ctx.meta <- Some meta

let set_egress ctx port =
  ctx.egress <- port;
  ctx.dropped <- false

let egress_spec ctx = if ctx.egress < 0 then None else Some ctx.egress

let mark_to_drop ctx =
  ctx.dropped <- true;
  ctx.egress <- -1

let clone ctx ~session = ctx.clones <- ctx.clones @ [ session ]
let resubmit ctx = ctx.wants_resubmit <- true
let digest ctx = ctx.digests <- ctx.digests @ [ packet ctx ]

let register t reg_name =
  match Hashtbl.find_opt t.registers reg_name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Pipeline(%s): unknown register %s" t.pipe_name reg_name)

let table t table_name =
  match Hashtbl.find_opt t.tables table_name with
  | Some tb -> tb
  | None -> invalid_arg (Printf.sprintf "Pipeline(%s): unknown table %s" t.pipe_name table_name)

let set_clone_session t ~session ~port = Hashtbl.replace t.clone_sessions session port

let fresh_ctx t ingress ~pkt ~out ~in_port ~kind ~egress =
  {
    parser = t.program.prog_parser;
    ingress;
    pkt;
    out;
    in_port;
    kind;
    meta = None;
    egress;
    dropped = false;
    clones = [];
    wants_resubmit = false;
    digests = [];
  }

let c_parse_errors = Obs.Metrics.(counter global) "p4rt.parser.errors"
let c_resubmits = Obs.Metrics.(counter global) "p4rt.pipeline.resubmit_requests"
let c_digests = Obs.Metrics.(counter global) "p4rt.pipeline.digests"

let instance_name = function
  | Normal -> "normal"
  | Cloned -> "cloned"
  | Resubmitted -> "resubmitted"

let no_outcome = { emissions = []; resubmitted = None; to_controller = [] }

(* The frame an egress context emits: the raw output when one was set,
   else the deparsed packet; [None] when egress dropped it. *)
let emission_of ctx =
  if ctx.dropped || ctx.egress < 0 then None
  else
    let bytes = match ctx.out with Some b -> b | None -> Packet.serialize (packet ctx) in
    Some { out_port = ctx.egress; bytes }

(* Egress for one clone of the packet; its digests are appended to the
   ingress context's. *)
let run_clone_egress t (ictx : ctx) ~port ~pkt ~out =
  let ectx =
    fresh_ctx t ictx.ingress ~pkt ~out ~in_port:ictx.in_port ~kind:Cloned ~egress:port
  in
  t.program.prog_egress ectx;
  ictx.digests <- ictx.digests @ ectx.digests;
  emission_of ectx

let run_program t ~ingress_port ~instance bytes =
  let ctx =
    fresh_ctx t bytes ~pkt:None ~out:None ~in_port:ingress_port ~kind:instance ~egress:(-1)
  in
  t.program.prog_ingress ctx;
  let resubmitted = if ctx.wants_resubmit then Some (packet ctx) else None in
  (* Clones are snapshotted at the end of ingress, as with BMv2's clone3
     from the ingress pipeline.  Each gets its own copy of a raw output,
     so every emission owns its bytes. *)
  let clone_jobs =
    match ctx.clones with
    | [] -> []
    | sessions ->
      List.filter_map
        (fun session ->
          match Hashtbl.find_opt t.clone_sessions session with
          | Some port -> Some (port, ctx.pkt, Option.map Bytes.copy ctx.out)
          | None -> None)
        sessions
  in
  (* The main copy's egress runs on the ingress context itself, reset to
     what a fresh egress context holds (no metadata, no clone requests);
     everything ingress produced is already taken above, and its digests
     simply keep accumulating. *)
  let main =
    if ctx.dropped || ctx.egress < 0 then []
    else begin
      ctx.meta <- None;
      ctx.clones <- [];
      t.program.prog_egress ctx;
      match emission_of ctx with Some e -> [ e ] | None -> []
    end
  in
  let emissions =
    match clone_jobs with
    | [] -> main
    | jobs ->
      main
      @ List.filter_map (fun (port, pkt, out) -> run_clone_egress t ctx ~port ~pkt ~out) jobs
  in
  { emissions; resubmitted; to_controller = ctx.digests }

let process t ~ingress_port ?(instance = Normal) bytes =
  let span =
    if Obs.Trace.enabled () then
      Obs.Trace.span_begin ~cat:"p4rt" "pipeline.process"
        ~attrs:
          [
            Obs.Trace.str "pipeline" t.pipe_name;
            Obs.Trace.str "instance" (instance_name instance);
            Obs.Trace.int "in_port" ingress_port;
          ]
    else 0
  in
  let outcome =
    match Parser.admit t.program.prog_parser bytes with
    | exception Parser.Parse_error _ ->
      Obs.Metrics.incr c_parse_errors;
      no_outcome
    | _ -> run_program t ~ingress_port ~instance bytes
  in
  if outcome.resubmitted <> None then Obs.Metrics.incr c_resubmits;
  (match outcome.to_controller with
   | [] -> ()
   | digests -> Obs.Metrics.incr c_digests ~by:(List.length digests));
  if span <> 0 then
    Obs.Trace.span_end span
      ~attrs:
        [
          Obs.Trace.int "emissions" (List.length outcome.emissions);
          Obs.Trace.int "digests" (List.length outcome.to_controller);
          ("resubmit", Obs.Json.Bool (outcome.resubmitted <> None));
        ];
  outcome
