type next =
  | Accept
  | Goto of string
  | Select of string * (int * string) list * next

type state = {
  state_name : string;
  extracts : Header.schema option;
  transition : next;
}

type t = { states : (string * state) list }

exception Parse_error of string

let rec targets_of = function
  | Accept -> []
  | Goto s -> [ s ]
  | Select (_, cases, default) -> List.map snd cases @ targets_of default

let create states =
  if not (List.exists (fun s -> s.state_name = "start") states) then
    invalid_arg "Parser.create: no start state";
  let known name = List.exists (fun s -> s.state_name = name) states in
  List.iter
    (fun s ->
      List.iter
        (fun target ->
          if not (known target) then
            invalid_arg
              (Printf.sprintf "Parser.create: state %s targets unknown state %s" s.state_name
                 target))
        (targets_of s.transition))
    states;
  { states = List.map (fun s -> (s.state_name, s)) states }

(* The one walker over the parse graph.  [on_extract schema offset] runs
   for every header the graph extracts, and the walk returns the offset
   where the payload starts.  Select fields are read straight from the
   bytes and nothing is allocated outside the error paths, so admission
   ({!admit}) and full parsing ({!run}) share one verdict. *)
let rec walk parser bytes on_extract state_name offset visits =
  if visits > 64 then raise (Parse_error "state visit budget exceeded");
  let state =
    match List.assoc state_name parser.states with
    | s -> s
    | exception Not_found -> raise (Parse_error ("unknown state " ^ state_name))
  in
  match state.extracts with
  | None -> decide parser bytes on_extract state offset offset visits state.transition
  | Some schema ->
    let size = Header.byte_size schema in
    if Bytes.length bytes < offset + size then
      raise
        (Parse_error
           (Printf.sprintf "Header.extract(%s): buffer too short" (Header.schema_name schema)));
    on_extract schema offset;
    decide parser bytes on_extract state offset (offset + size) visits state.transition

(* [start] is where [state]'s header begins, [offset] where it ends. *)
and decide parser bytes on_extract state start offset visits = function
  | Accept -> offset
  | Goto s -> walk parser bytes on_extract s offset (visits + 1)
  | Select (field, cases, default) -> (
    match state.extracts with
    | None -> raise (Parse_error "select without extraction")
    | Some schema -> (
      match List.assoc (Header.read_field schema field bytes start) cases with
      | target -> walk parser bytes on_extract target offset (visits + 1)
      | exception Not_found -> decide parser bytes on_extract state start offset visits default))

let no_extract _ _ = ()

let admit parser bytes = walk parser bytes no_extract "start" 0 0

let run parser bytes =
  let headers = ref [] in
  let offset =
    walk parser bytes
      (fun schema off -> headers := fst (Header.extract schema bytes off) :: !headers)
      "start" 0 0
  in
  let payload = Bytes.sub bytes offset (Bytes.length bytes - offset) in
  Packet.make ~payload (List.rev !headers)
