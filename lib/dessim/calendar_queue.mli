(** Calendar queue of timestamped events (Brown 1988).

    Same contract as {!Event_heap} — (time, seq) strict ordering with
    FIFO tie-breaking, tags in a side table, untyped-payload flat
    storage — but O(1) amortized enqueue/dequeue when event times arrive
    roughly uniformly, as the scale engine's Poisson bursts do.  Time is
    hashed into a circular array of buckets of [width] ms; dequeue scans
    the cursor bucket for the earliest eligible entry.

    The bucket width auto-tunes: when occupancy exceeds ~2 entries per
    bucket the bucket count doubles and the width is re-derived from the
    observed time span.  Distributions a calendar cannot spread (every
    event at one instant, or heavy clustering surviving a re-tune)
    trigger a one-way migration into a private {!Event_heap} that
    preserves issued sequence numbers — the fallback is
    content-determined and order-preserving, so behavior is identical
    and only the cost model changes.

    Delivery order is byte-identical to {!Event_heap} /
    {!Event_heap_ref}; the differential qcheck oracle in
    [test/test_scale.ml] enforces it over random push/pop/remove
    interleavings including same-instant ties. *)

type tag = Event_heap.tag = {
  tag_kind : string;
  tag_node : int;
  tag_flow : int;
  tag_hash : int;
}

type 'a t

val create : unit -> 'a t

(** [push q ~time event] inserts [event] to fire at [time]. *)
val push : ?tag:tag -> 'a t -> time:float -> 'a -> unit

(** [push_arg q ~time event arg] inserts like {!push} and stores one
    extra untyped word [arg] with the entry, handed back by
    {!pop_apply}.  {!Sim} keeps a scheduled call's argument there, so a
    call needs no closure. *)
val push_arg : ?tag:tag -> 'a t -> time:float -> 'a -> Obj.t -> unit

(** [pop_apply q ~horizon k] removes the earliest event if its time is
    at most [horizon], applies [k] to its time, payload and argument
    (see [push_arg]), and returns [true]; it returns [false], removing
    nothing, when the queue is empty or the earliest event is later.
    One search per event and no allocation of its own: the event loop's
    path.  The event's storage is freed before [k] runs, so [k] may push. *)
val pop_apply : 'a t -> horizon:float -> (float -> 'a -> Obj.t -> unit) -> bool

(** [pop q] removes and returns the earliest event (time, seq order), or
    [None] when the queue is empty. *)
val pop : 'a t -> (float * 'a) option

(** [peek_time q] is the timestamp of the earliest event without
    removing it.  May advance the internal cursor (amortizing the
    following {!pop}); the observable content never changes. *)
val peek_time : 'a t -> float option

val size : 'a t -> int
val is_empty : 'a t -> bool

(** [clear q] drops all pending events (bucket capacity is retained;
    see {!compact}). *)
val clear : 'a t -> unit

(** [fold q ~init ~f] folds over every pending entry in unspecified
    order. *)
val fold :
  'a t -> init:'acc -> f:('acc -> time:float -> seq:int -> tag:tag option -> 'acc) -> 'acc

(** [remove_seq q seq] removes the entry with the given sequence number,
    returning its time, tag and payload.  O(n); for the model checker's
    choice-point layer. *)
val remove_seq : 'a t -> int -> (float * tag option * 'a) option

(** [remove_seq_apply q seq k] removes the entry with sequence number
    [seq] like {!remove_seq} and applies [k] to its time, payload and
    argument; [false] when no such entry is pending. *)
val remove_seq_apply : 'a t -> int -> (float -> 'a -> Obj.t -> unit) -> bool

(** [compact q] rebuilds with the smallest bucket array holding the
    current entries and re-tunes the width from them — the down-sizing
    counterpart of the push-side re-tune.  O(n); call at quiesce
    points. *)
val compact : 'a t -> unit

(** True once the pathological-distribution fallback has migrated this
    queue onto its private heap (diagnostic; behavior is unchanged). *)
val fallback_active : 'a t -> bool
