(** Header schemas and instances — the header model of P4.

    A schema names an ordered list of fields with bit widths.  An instance
    binds every field to a value and carries a validity bit (P4's
    [setValid]/[setInvalid]).  Instances serialize MSB-first into bytes; a
    schema whose total width is not byte-aligned is rejected at definition
    time, mirroring common P4 target constraints. *)

type schema

type inst

(** [define ~name fields] creates a schema.  Raises [Invalid_argument] on
    empty or duplicate field names, widths outside \[1, 62\], or a total
    bit width not divisible by 8. *)
val define : name:string -> (string * int) list -> schema

val schema_name : schema -> string
val byte_size : schema -> int
val fields : schema -> (string * int) list

(** Fresh all-zero valid instance. *)
val make : schema -> inst

val schema_of : inst -> schema
val is_valid : inst -> bool
val set_valid : inst -> bool -> inst

(** [get inst field] / [set inst field v]: field access by name.  [set]
    truncates to the field width.  Raise [Invalid_argument] on unknown
    fields. *)
val get : inst -> string -> int
val set : inst -> string -> int -> inst

val get_bv : inst -> string -> Bitval.t

(** [read_field schema field buf offset] is [field] of the [schema]
    header serialized at byte [offset] of [buf], read straight from the
    wire image without building an instance.  Raises [Invalid_argument]
    on unknown fields, like {!get}, and when the header does not fit in
    [buf], like {!extract}. *)
val read_field : schema -> string -> Bytes.t -> int -> int

(** [field_position schema field] is [(bit, width)]: where [field]
    starts, in bits from the start of the header, and its width.  Raises
    [Invalid_argument] on unknown fields.  Resolve it once and read with
    {!read_bits_at} to skip the per-read name lookup of {!read_field}. *)
val field_position : schema -> string -> int * int

(** [read_bits_at buf ~bit ~width] reads the MSB-first unsigned value of
    [width] bits starting at absolute bit [bit] of [buf], with per-byte
    loads when both are byte-aligned.  The caller guarantees the bits lie
    inside [buf]. *)
val read_bits_at : Bytes.t -> bit:int -> width:int -> int

(** Serialize into [bytes] at [offset]; returns the next offset.  Invalid
    instances emit nothing.  Schemas whose every field width is a
    multiple of 8 (all the P4Update wire schemas) are written with
    per-byte MSB-first stores; schemas with a sub-byte field go through
    per-bit writes.  Both produce the same MSB-first wire image. *)
val emit : inst -> Bytes.t -> int -> int

(** [extract schema buf offset] parses one instance; returns it (valid)
    and the next offset.  Raises [Invalid_argument] if the buffer is too
    short.  Byte- or bit-wise like {!emit}. *)
val extract : schema -> Bytes.t -> int -> inst * int

val pp : Format.formatter -> inst -> unit
