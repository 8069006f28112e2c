(* Host-speed yardstick: a fixed synthetic event loop that uses nothing
   of the repository, so no change to the program can move it.

     calib.exe

   prints the host seconds one pass takes.  [run.py] runs it in its own
   process before every draw and once more after the last draw of each
   cycle, and scales each draw's host times by how slow the host was
   around it (README.md, "Host-time rates").

   The loop is shaped like the simulator's inner loop: a binary heap of
   timed events holding closures, per-node state in a [Hashtbl], short
   lists allocated and dropped on every event. *)

type ev = { time : float; seq : int; f : unit -> unit }

let events = 80_000

let run () =
  let dummy = { time = 0.0; seq = 0; f = ignore } in
  let heap = ref (Array.make 1024 dummy) and size = ref 0 in
  let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq) in
  let push e =
    if !size = Array.length !heap then begin
      let h = Array.make (2 * !size) dummy in
      Array.blit !heap 0 h 0 !size;
      heap := h
    end;
    let h = !heap in
    let i = ref !size in
    incr size;
    while !i > 0 && lt e h.((!i - 1) / 2) do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- e
  in
  let pop () =
    let h = !heap in
    let top = h.(0) in
    decr size;
    let last = h.(!size) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !size then fin := true
      else begin
        let c = if l + 1 < !size && lt h.(l + 1) h.(l) then l + 1 else l in
        if lt h.(c) last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else fin := true
      end
    done;
    h.(!i) <- last;
    top
  in
  let state = Hashtbl.create 4096 and seq = ref 0 and now = ref 0.0 and count = ref 0 in
  let rng = Random.State.make [| 7 |] in
  let rec schedule delay node =
    incr seq;
    push
      { time = !now +. delay;
        seq = !seq;
        f =
          (fun () ->
            let path = List.init 6 (fun i -> (node + i) land 4095) in
            let seen = Option.value (Hashtbl.find_opt state node) ~default:[] in
            Hashtbl.replace state node (List.filteri (fun i _ -> i < 8) (path @ seen));
            incr count;
            if !count < events then
              schedule (Random.State.float rng 10.0) (Random.State.int rng 4096)) }
  in
  for i = 0 to 1999 do
    schedule (float_of_int i) (i land 4095)
  done;
  while !size > 0 do
    let e = pop () in
    now := e.time;
    e.f ()
  done

let () =
  let t0 = Monotonic_clock.now () in
  run ();
  let t1 = Monotonic_clock.now () in
  Printf.printf "%.9f\n" (Int64.to_float (Int64.sub t1 t0) /. 1e9)
