(** Payload storage for the event queues.

    A queued event's payload and argument are stored once, at a slot
    taken from a free stack, and stay there until the event is popped;
    the queue orders only unboxed (time, seq, slot) words.  Moving those
    never runs the write barrier, which storing a young pointer into a
    long-lived array pays on every move (and records in the remembered
    set). *)

type t

(** The immediate a cleared slot holds (also the argument of a plain push). *)
val dummy : Obj.t

val create : unit -> t

(** [take t payload arg] stores both words and returns their slot. *)
val take : t -> Obj.t -> Obj.t -> int

val payload : t -> int -> Obj.t
val arg : t -> int -> Obj.t

(** [release t slot] clears the slot (so nothing popped stays reachable
    from the queue) and returns it to the free stack. *)
val release : t -> int -> unit

(** Slots in use. *)
val used : t -> int

(** [compact t ~live ~capacity] keeps only the [live] slots, renumbered
    so that [live.(i)] becomes slot [i], in storage of [capacity] slots
    ([>= Array.length live]). *)
val compact : t -> live:int array -> capacity:int -> unit
