(* Payload/argument storage by slot for Event_heap and Calendar_queue
   (see the interface).  Freed slots are reset to an immediate so a
   popped thunk is never retained. *)

let dummy = Obj.repr 0

type t = {
  mutable payloads : Obj.t array;
  mutable args : Obj.t array;
  mutable free : int array;  (* stack of unused slots *)
  mutable nfree : int;
}

let create () = { payloads = [||]; args = [||]; free = [||]; nfree = 0 }

let used t = Array.length t.payloads - t.nfree

(* Double the storage; the new slots go on the free stack. *)
let grow t =
  let old = Array.length t.payloads in
  let capacity = max 64 (2 * old) in
  let payloads = Array.make capacity dummy and args = Array.make capacity dummy in
  Array.blit t.payloads 0 payloads 0 old;
  Array.blit t.args 0 args 0 old;
  let free = Array.make capacity 0 in
  Array.blit t.free 0 free 0 t.nfree;
  for s = capacity - 1 downto old do
    free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
  done;
  t.payloads <- payloads;
  t.args <- args;
  t.free <- free

let take t payload arg =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  let slot = Array.unsafe_get t.free t.nfree in
  Array.unsafe_set t.payloads slot payload;
  Array.unsafe_set t.args slot arg;
  slot

let[@inline] payload t slot = Array.unsafe_get t.payloads slot
let[@inline] arg t slot = Array.unsafe_get t.args slot

let release t slot =
  Array.unsafe_set t.payloads slot dummy;
  Array.unsafe_set t.args slot dummy;
  Array.unsafe_set t.free t.nfree slot;
  t.nfree <- t.nfree + 1

let compact t ~live ~capacity =
  let n = Array.length live in
  let payloads = Array.make capacity dummy and args = Array.make capacity dummy in
  Array.iteri
    (fun i slot ->
      payloads.(i) <- t.payloads.(slot);
      args.(i) <- t.args.(slot))
    live;
  t.payloads <- payloads;
  t.args <- args;
  t.free <- Array.init capacity (fun i -> capacity - 1 - i);
  t.nfree <- capacity - n
