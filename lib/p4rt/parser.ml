type next =
  | Accept
  | Goto of string
  | Select of string * (int * string) list * next

type state = {
  state_name : string;
  extracts : Header.schema option;
  transition : next;
}

(* The compiled graph: states are array indices ([start] is 0), and a
   select knows its field's bit position inside the state's header and
   its cases as parallel arrays, so a walk does no name lookup. *)
type step =
  | Accept_at
  | Goto_at of int
  | Select_at of {
      bit : int;          (* field start, in bits from the header start *)
      width : int;
      keys : int array;   (* case values, in declaration order *)
      targets : int array;
      default : step;
    }

type compiled = {
  schema : Header.schema option;
  size : int;  (* bytes extracted; 0 when [schema = None] *)
  short : string;  (* the truncation error of [schema] *)
  step : step;
}

type t = { source : state list; graph : compiled array }

exception Parse_error of string

let fail fmt = Printf.ksprintf invalid_arg ("Parser.create: " ^^ fmt)

let create states =
  (* "start" first, the others in declaration order. *)
  let ordered =
    List.filter (fun s -> s.state_name = "start") states
    @ List.filter (fun s -> s.state_name <> "start") states
  in
  let index = Hashtbl.create 8 in
  List.iteri
    (fun i s ->
      if Hashtbl.mem index s.state_name then fail "duplicate state %s" s.state_name;
      Hashtbl.add index s.state_name i)
    ordered;
  if not (Hashtbl.mem index "start") then fail "no start state";
  let compile s =
    let target name =
      match Hashtbl.find_opt index name with
      | Some i -> i
      | None -> fail "state %s targets unknown state %s" s.state_name name
    in
    let rec step = function
      | Accept -> Accept_at
      | Goto name -> Goto_at (target name)
      | Select (field, cases, default) -> (
        match s.extracts with
        | None -> fail "state %s selects on %s but extracts nothing" s.state_name field
        | Some schema ->
          let bit, width =
            match Header.field_position schema field with
            | pos -> pos
            | exception Invalid_argument _ ->
              fail "state %s selects on %s, which %s lacks" s.state_name field
                (Header.schema_name schema)
          in
          Select_at
            {
              bit;
              width;
              keys = Array.of_list (List.map fst cases);
              targets = Array.of_list (List.map (fun (_, name) -> target name) cases);
              default = step default;
            })
    in
    {
      schema = s.extracts;
      size = (match s.extracts with Some h -> Header.byte_size h | None -> 0);
      short =
        (match s.extracts with
         | Some h -> Printf.sprintf "Header.extract(%s): buffer too short" (Header.schema_name h)
         | None -> "");
      step = step s.transition;
    }
  in
  { source = states; graph = Array.of_list (List.map compile ordered) }

let states t = t.source

let rec case keys targets v i =
  if i = Array.length keys then -1
  else if Array.unsafe_get keys i = v then Array.unsafe_get targets i
  else case keys targets v (i + 1)

(* The one walker over the compiled graph.  [on_extract schema offset]
   runs for every header the graph extracts, and the walk returns the
   offset where the payload starts.  Nothing is allocated outside the
   error paths, so admission ({!admit}) and full parsing ({!run}) share
   one verdict. *)
let rec walk graph bytes on_extract si offset visits =
  if visits > 64 then raise (Parse_error "state visit budget exceeded");
  let st = Array.unsafe_get graph si in
  match st.schema with
  | None -> decide graph bytes on_extract st.step offset offset visits
  | Some schema ->
    if Bytes.length bytes < offset + st.size then raise (Parse_error st.short);
    on_extract schema offset;
    decide graph bytes on_extract st.step offset (offset + st.size) visits

(* [start] is where the state's header begins, [offset] where it ends. *)
and decide graph bytes on_extract step start offset visits =
  match step with
  | Accept_at -> offset
  | Goto_at si -> walk graph bytes on_extract si offset (visits + 1)
  | Select_at { bit; width; keys; targets; default } ->
    let v = Header.read_bits_at bytes ~bit:((start * 8) + bit) ~width in
    let si = case keys targets v 0 in
    if si >= 0 then walk graph bytes on_extract si offset (visits + 1)
    else decide graph bytes on_extract default start offset visits

let no_extract _ _ = ()

let admit t bytes = walk t.graph bytes no_extract 0 0 0

let run t bytes =
  let headers = ref [] in
  let offset =
    walk t.graph bytes
      (fun schema off -> headers := fst (Header.extract schema bytes off) :: !headers)
      0 0 0
  in
  let payload = Bytes.sub bytes offset (Bytes.length bytes - offset) in
  Packet.make ~payload (List.rev !headers)
