(** P4-style parse graph: states extract a header and select the next
    state on a field of the header just extracted.

    A parser is a list of named states.  Parsing starts at ["start"] and
    ends when a state selects [Accept].  The bytes remaining after the
    final extraction become the payload. *)

type next =
  | Accept
  | Goto of string
  | Select of string * (int * string) list * next
      (** [Select (field, cases, default)]: branch on the value of [field]
          of the header extracted in this state. *)

type state = {
  state_name : string;
  extracts : Header.schema option;  (** [None]: extract nothing *)
  transition : next;
}

type t

(** [create states] compiles the parse graph once: states become array
    indices, each select resolves its field to a bit position in the
    state's header, and its cases become arrays, so {!admit} and {!run}
    do no name lookup per packet.  Raises [Invalid_argument] when no
    ["start"] state exists, two states share a name, a transition targets
    an unknown state, or a [Select] names a field the state's schema
    lacks or sits in a state that extracts nothing. *)
val create : state list -> t

(** The states [t] was created from, as given. *)
val states : t -> state list

exception Parse_error of string

(** [run parser bytes] parses a packet.  Raises [Parse_error] on truncated
    input or a select value with no matching case and a [Goto] default
    that loops forever (cycles are cut after 64 state visits). *)
val run : t -> Bytes.t -> Packet.t

(** [admit parser bytes] walks the same graph as {!run} without building
    anything and returns the offset where the payload starts.  It raises
    [Parse_error] exactly when {!run} does (both share one walker) and
    allocates nothing on success: the pipeline's admission check. *)
val admit : t -> Bytes.t -> int
