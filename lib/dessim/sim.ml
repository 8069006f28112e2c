type tag = Event_heap.tag = {
  tag_kind : string;
  tag_node : int;
  tag_flow : int;
  tag_hash : int;
}

type candidate = { c_time : float; c_seq : int; c_tag : tag option }

type chooser = now:float -> candidate array -> int

type stats = { st_events : int; st_wall_s : float; st_events_per_s : float }

type t = {
  mutable clock : float;
  (* Each entry is a function and the argument it is applied to (see
     [schedule_call]); a thunk is stored with [()] as its argument. *)
  queue : (Obj.t -> unit) Calendar_queue.t;
  (* [dispatch] applied to this simulation, made once: what the queue
     calls with each popped event. *)
  mutable fire : float -> (Obj.t -> unit) -> Obj.t -> unit;
  random : Random.State.t;
  mutable chooser : chooser option;
  mutable chooser_window : float;
  mutable events : int;
  mutable wall_s : float;
  (* Observability tick: fired from [dispatch] whenever the clock crosses
     a multiple of [tick_every], strictly off the event queue — the tick
     never schedules events, never consumes RNG and never perturbs
     [pending], so installing one cannot change a run's event schedule,
     chaos hash or mc fingerprint. *)
  mutable tick_every : float;  (* 0.0 = disabled *)
  mutable tick_next : float;
  mutable on_tick : (now:float -> unit) option;
}

let now t = t.clock
let rng t = t.random

let compact t = Calendar_queue.compact t.queue

let set_chooser ?(window = 0.0) t chooser =
  if not (Float.is_finite window) || window < 0.0 then
    invalid_arg "Sim.set_chooser: negative or non-finite window";
  t.chooser <- Some chooser;
  t.chooser_window <- window

let clear_chooser t =
  t.chooser <- None;
  t.chooser_window <- 0.0

let chooser_installed t = t.chooser <> None

let tag ~kind ~node ~flow ~hash =
  { tag_kind = kind; tag_node = node; tag_flow = flow; tag_hash = hash }

let[@inline] push_at ?tag t ~time (f : 'a -> unit) (x : 'a) =
  if not (Float.is_finite time) then invalid_arg "Sim.schedule_at: non-finite time";
  if time < t.clock then invalid_arg "Sim.schedule_at: time in the past";
  Calendar_queue.push_arg ?tag t.queue ~time (Obj.magic f : Obj.t -> unit) (Obj.repr x)

let[@inline] check_delay delay =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Sim.schedule: negative or non-finite delay"

let schedule_at ?tag t ~time f = push_at ?tag t ~time f ()

let schedule ?tag t ~delay f =
  check_delay delay;
  push_at ?tag t ~time:(t.clock +. delay) f ()

let schedule_call ?tag t ~delay f x =
  check_delay delay;
  push_at ?tag t ~time:(t.clock +. delay) f x

(* Catch-up loop: a dispatch that jumps several tick periods ahead fires
   every intermediate tick, each stamped with its own boundary time, so
   windows stay fixed-width even across idle stretches. *)
let fire_ticks t =
  match t.on_tick with
  | Some cb when t.tick_every > 0.0 ->
    while t.tick_next <= t.clock do
      let at = t.tick_next in
      t.tick_next <- at +. t.tick_every;
      cb ~now:at
    done
  | Some _ | None -> ()

let set_tick t ~every_ms cb =
  if not (Float.is_finite every_ms) || every_ms <= 0.0 then
    invalid_arg "Sim.set_tick: tick period must be positive";
  t.tick_every <- every_ms;
  (* First boundary strictly after the current clock.  The float
     quotient is inexact in both directions (0.6 /. 0.3 = 1.999…, so the
     naive floor+1 boundary lands exactly *at* the clock and fires an
     extra tick; an overshooting quotient would skip one), so the floor
     candidate is stepped until it is the first multiple strictly after
     the clock. *)
  let next = ref ((Float.floor (t.clock /. every_ms) +. 1.0) *. every_ms) in
  while !next <= t.clock do
    next := !next +. every_ms
  done;
  while !next -. every_ms > t.clock do
    next := !next -. every_ms
  done;
  t.tick_next <- !next;
  t.on_tick <- Some cb

let clear_tick t =
  t.tick_every <- 0.0;
  t.on_tick <- None

let dispatch t ~time (f : Obj.t -> unit) x =
  t.clock <- time;
  t.events <- t.events + 1;
  if t.on_tick <> None then fire_ticks t;
  (* The "sim" category is excluded by default; enabling it gives a span
     per dispatched event for scheduler-level profiling. *)
  if Obs.Trace.enabled () then
    Obs.Trace.with_span ~cat:"sim" "dispatch"
      ~attrs:[ Obs.Trace.float "time" time ]
      (fun () -> f x)
  else f x

let create ?(seed = 0x5eed) () =
  let t =
    {
      clock = 0.0;
      queue = Calendar_queue.create ();
      fire = (fun _ _ _ -> ());
      random = Random.State.make [| seed |];
      chooser = None;
      chooser_window = 0.0;
      events = 0;
      wall_s = 0.0;
      tick_every = 0.0;
      tick_next = 0.0;
      on_tick = None;
    }
  in
  t.fire <- (fun time f x -> dispatch t ~time f x);
  t

(* Choice-point path: collect every pending event within the reorder
   window of the earliest one (sorted by the default (time, seq) order,
   so index 0 is what the plain queue would deliver), let the installed
   policy pick one, and execute it.  Picking a later event models extra
   network delay on the earlier ones, so the clock only ever moves
   forward: it jumps to the *chosen* event's nominal time if that is
   ahead, and stays put if the chosen event was nominally due earlier. *)
let step_choose t chooser =
  match Calendar_queue.peek_time t.queue with
  | None -> false
  | Some min_time ->
    let horizon = min_time +. t.chooser_window in
    let candidates =
      Calendar_queue.fold t.queue ~init:[] ~f:(fun acc ~time ~seq ~tag ->
          if time <= horizon then { c_time = time; c_seq = seq; c_tag = tag } :: acc
          else acc)
    in
    let candidates =
      Array.of_list
        (List.sort
           (fun a b ->
             match compare a.c_time b.c_time with 0 -> compare a.c_seq b.c_seq | c -> c)
           candidates)
    in
    let idx = chooser ~now:t.clock candidates in
    if idx < 0 || idx >= Array.length candidates then
      invalid_arg
        (Printf.sprintf "Sim.step: chooser picked %d of %d candidates" idx
           (Array.length candidates));
    let found =
      Calendar_queue.remove_seq_apply t.queue candidates.(idx).c_seq (fun time f x ->
          dispatch t ~time:(Float.max t.clock time) f x)
    in
    assert found (* the candidate was just enumerated *);
    true

(* The default path: one search of the queue per event, no allocation. *)
let[@inline] step_until t ~horizon = Calendar_queue.pop_apply t.queue ~horizon t.fire

let step t =
  match t.chooser with
  | Some chooser -> step_choose t chooser
  | None -> step_until t ~horizon:infinity

let run ?until t =
  let horizon = match until with Some h -> h | None -> infinity in
  let rec loop processed =
    match t.chooser with
    | None -> if step_until t ~horizon then loop (processed + 1) else processed
    | Some chooser ->
      (match Calendar_queue.peek_time t.queue with
       | Some next when next <= horizon ->
         if step_choose t chooser then loop (processed + 1) else processed
       | Some _ | None -> processed)
  in
  let started = Wallclock.now_s () in
  let processed = loop 0 in
  (* A bounded run covers the whole interval: the clock advances to the
     horizon and the catch-up ticks between the last dispatched event
     and the horizon fire, so fixed-width Timeseries windows reach the
     horizon instead of silently stopping at the last event. *)
  (match until with
   | Some horizon when Float.is_finite horizon && horizon > t.clock ->
     t.clock <- horizon;
     if t.on_tick <> None then fire_ticks t
   | _ -> ());
  t.wall_s <- t.wall_s +. Wallclock.elapsed_s ~since:started;
  processed

let stats t =
  let per_s = if t.wall_s > 0.0 then float_of_int t.events /. t.wall_s else 0.0 in
  { st_events = t.events; st_wall_s = t.wall_s; st_events_per_s = per_s }

let reset_stats t =
  t.events <- 0;
  t.wall_s <- 0.0

let pending t = Calendar_queue.size t.queue

let fold_pending t ~init ~f =
  Calendar_queue.fold t.queue ~init ~f:(fun acc ~time ~seq:_ ~tag -> f acc ~time ~tag)

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Sim.exponential: mean must be positive";
  let u = Random.State.float t.random 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then Float.min_float else u in
  -.mean *. log u

let normal t ~mean ~stddev =
  let u1 = max Float.min_float (Random.State.float t.random 1.0) in
  let u2 = Random.State.float t.random 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  Float.max 0.0 (mean +. (stddev *. z))

let uniform t ~bound = Random.State.float t.random bound
let uniform_int t ~bound = Random.State.int t.random bound
