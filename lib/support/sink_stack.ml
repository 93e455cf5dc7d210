type handle = int
type 'a t = (handle * ('a -> unit)) list Domain.DLS.key

let create () = Domain.DLS.new_key (fun () -> [])

(* One counter for every stack keeps handles unique process-wide. *)
let next_handle = Atomic.make 0

let install t sink =
  let h = 1 + Atomic.fetch_and_add next_handle 1 in
  Domain.DLS.set t ((h, sink) :: Domain.DLS.get t);
  h

let uninstall t h =
  Domain.DLS.set t (List.filter (fun (h', _) -> h' <> h) (Domain.DLS.get t))

let with_sink t sink f =
  let h = install t sink in
  Fun.protect ~finally:(fun () -> uninstall t h) f

let enabled t = Domain.DLS.get t <> []
let installed_count t = List.length (Domain.DLS.get t)

let dispatch t x =
  match Domain.DLS.get t with
  | [] -> false
  | sinks ->
      List.iter (fun (_, sink) -> sink x) sinks;
      true
