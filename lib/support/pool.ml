let run ~domains n f =
  let next = Atomic.make 0 in
  let rec work worker =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      f ~worker i;
      work worker
    end
  in
  let domains = max 1 (min domains n) in
  if domains = 1 then work 0
  else begin
    let spawned =
      List.init (domains - 1) (fun s -> Domain.spawn (fun () -> work (s + 1)))
    in
    let error f =
      match f () with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    let mine = error (fun () -> work 0) in
    let theirs = List.map (fun d -> error (fun () -> Domain.join d)) spawned in
    match List.find_map Fun.id (mine :: theirs) with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end
