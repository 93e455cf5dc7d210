(* Double-checked publication: the value becomes visible through the
   atomic slot only after [init] returned, and initializers serialize on
   the cell's own mutex, so nested cells (one initializer forcing
   another) cannot deadlock. *)
type 'a t = { slot : 'a option Atomic.t; init : unit -> 'a; mutex : Mutex.t }

let make init = { slot = Atomic.make None; init; mutex = Mutex.create () }

let get t =
  match Atomic.get t.slot with
  | Some v -> v
  | None ->
      Mutex.protect t.mutex (fun () ->
          match Atomic.get t.slot with
          | Some v -> v
          | None ->
              let v = t.init () in
              Atomic.set t.slot (Some v);
              v)
