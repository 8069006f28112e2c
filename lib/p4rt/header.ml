type schema = {
  name : string;
  field_list : (string * int) list;
  total_bits : int;
  (* Per-field (byte offset within the header, byte width) when every
     field is byte-aligned; [None] for schemas with sub-byte fields,
     which fall back to the bit loops below.  Precomputed at [define]
     time. *)
  byte_layout : (int * int) array option;
}

type inst = {
  schema : schema;
  values : int array;
  valid : bool;
}

let define ~name field_list =
  if field_list = [] then invalid_arg "Header.define: empty field list";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (field, w) ->
      if Hashtbl.mem seen field then
        invalid_arg (Printf.sprintf "Header.define(%s): duplicate field %s" name field);
      Hashtbl.add seen field ();
      if w < 1 || w > 62 then
        invalid_arg (Printf.sprintf "Header.define(%s): field %s width %d" name field w))
    field_list;
  let total_bits = List.fold_left (fun acc (_, w) -> acc + w) 0 field_list in
  if total_bits mod 8 <> 0 then
    invalid_arg
      (Printf.sprintf "Header.define(%s): total width %d bits not byte aligned" name total_bits);
  let byte_layout =
    if List.for_all (fun (_, w) -> w mod 8 = 0) field_list then begin
      let off = ref 0 in
      Some
        (Array.of_list
           (List.map
              (fun (_, w) ->
                let o = !off in
                off := o + (w / 8);
                (o, w / 8))
              field_list))
    end
    else None
  in
  { name; field_list; total_bits; byte_layout }

let schema_name s = s.name
let byte_size s = s.total_bits / 8
let fields s = s.field_list

let make schema =
  { schema; values = Array.make (List.length schema.field_list) 0; valid = true }

let schema_of inst = inst.schema
let is_valid inst = inst.valid
let set_valid inst valid = { inst with valid }

let index_of inst field =
  let rec find i = function
    | [] ->
      invalid_arg (Printf.sprintf "Header(%s): unknown field %s" inst.schema.name field)
    | (f, _) :: rest -> if f = field then i else find (i + 1) rest
  in
  find 0 inst.schema.field_list

let width_of inst field =
  let rec find = function
    | [] ->
      invalid_arg (Printf.sprintf "Header(%s): unknown field %s" inst.schema.name field)
    | (f, w) :: rest -> if f = field then w else find rest
  in
  find inst.schema.field_list

let get inst field = inst.values.(index_of inst field)

let set inst field v =
  let w = width_of inst field in
  let values = Array.copy inst.values in
  values.(index_of inst field) <- v land ((1 lsl w) - 1);
  { inst with values }

let get_bv inst field = Bitval.make ~width:(width_of inst field) (get inst field)

(* Bit-level MSB-first writer/reader over a bytes buffer, for schemas
   with sub-byte fields. *)

let write_bits buf ~bit_offset ~width v =
  for i = 0 to width - 1 do
    let bit = (v lsr (width - 1 - i)) land 1 in
    let pos = bit_offset + i in
    let byte_index = pos / 8 and bit_in_byte = 7 - (pos mod 8) in
    let current = Char.code (Bytes.get buf byte_index) in
    let updated =
      if bit = 1 then current lor (1 lsl bit_in_byte)
      else current land lnot (1 lsl bit_in_byte)
    in
    Bytes.set buf byte_index (Char.chr (updated land 0xff))
  done

let read_bits buf ~bit_offset ~width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    let pos = bit_offset + i in
    let byte_index = pos / 8 and bit_in_byte = 7 - (pos mod 8) in
    let bit = (Char.code (Bytes.get buf byte_index) lsr bit_in_byte) land 1 in
    v := (!v lsl 1) lor bit
  done;
  !v

(* Byte-aligned MSB-first stores/loads — same wire image as the bit
   loops, one byte per iteration instead of one bit. *)

let[@inline] write_bytes_be buf ~pos ~nbytes v =
  for b = 0 to nbytes - 1 do
    Bytes.unsafe_set buf (pos + b)
      (Char.unsafe_chr ((v lsr (8 * (nbytes - 1 - b))) land 0xff))
  done

let[@inline] read_bytes_be buf ~pos ~nbytes =
  let v = ref 0 in
  for b = 0 to nbytes - 1 do
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get buf (pos + b))
  done;
  !v

let field_position schema field =
  let rec find bit = function
    | [] -> invalid_arg (Printf.sprintf "Header(%s): unknown field %s" schema.name field)
    | (f, w) :: rest -> if f = field then (bit, w) else find (bit + w) rest
  in
  find 0 schema.field_list

let read_bits_at buf ~bit ~width =
  if bit land 7 = 0 && width land 7 = 0 then
    read_bytes_be buf ~pos:(bit lsr 3) ~nbytes:(width lsr 3)
  else read_bits buf ~bit_offset:bit ~width

let read_field schema field buf offset =
  if offset < 0 || Bytes.length buf < offset + byte_size schema then
    invalid_arg (Printf.sprintf "Header.read_field(%s): buffer too short" schema.name);
  let bit, width = field_position schema field in
  read_bits_at buf ~bit:((offset * 8) + bit) ~width

let emit inst buf offset =
  if not inst.valid then offset
  else begin
    if Bytes.length buf < offset + byte_size inst.schema then
      invalid_arg (Printf.sprintf "Header.emit(%s): buffer too short" inst.schema.name);
    (match inst.schema.byte_layout with
    | Some layout ->
      Array.iteri
        (fun i (o, nbytes) ->
          write_bytes_be buf ~pos:(offset + o) ~nbytes inst.values.(i))
        layout
    | None ->
      let bit = ref (offset * 8) in
      List.iteri
        (fun i (_, w) ->
          write_bits buf ~bit_offset:!bit ~width:w inst.values.(i);
          bit := !bit + w)
        inst.schema.field_list);
    offset + byte_size inst.schema
  end

let extract schema buf offset =
  if Bytes.length buf < offset + byte_size schema then
    invalid_arg (Printf.sprintf "Header.extract(%s): buffer too short" schema.name);
  let inst = make schema in
  (match schema.byte_layout with
  | Some layout ->
    Array.iteri
      (fun i (o, nbytes) ->
        inst.values.(i) <- read_bytes_be buf ~pos:(offset + o) ~nbytes)
      layout
  | None ->
    let bit = ref (offset * 8) in
    List.iteri
      (fun i (_, w) ->
        inst.values.(i) <- read_bits buf ~bit_offset:!bit ~width:w;
        bit := !bit + w)
      schema.field_list);
  (inst, offset + byte_size schema)

let pp fmt inst =
  Format.fprintf fmt "@[<h>%s{" inst.schema.name;
  List.iteri
    (fun i (f, _) ->
      if i > 0 then Format.fprintf fmt "; ";
      Format.fprintf fmt "%s=%d" f inst.values.(i))
    inst.schema.field_list;
  Format.fprintf fmt "}%s@]" (if inst.valid then "" else " (invalid)")
