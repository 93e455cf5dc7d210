(* Support.Pool: the one domain pool behind Batch.Driver.run and
   Tune.search. Every index runs exactly once on a worker in [0, d),
   and a raising task reaches the caller only after every spawned
   domain has been joined. *)

exception Boom

let test_every_index_once () =
  List.iter
    (fun n ->
      for domains = 1 to 4 do
        let runs = Array.init n (fun _ -> Atomic.make 0) in
        let workers = Array.make n (-1) in
        Support.Pool.run ~domains n (fun ~worker i ->
            Atomic.incr runs.(i);
            workers.(i) <- worker);
        let d = max 1 (min domains n) in
        Array.iteri
          (fun i r ->
            let what = Printf.sprintf "n=%d domains=%d index %d" n domains i in
            Alcotest.(check int) (what ^ " ran once") 1 (Atomic.get r);
            Alcotest.(check bool)
              (what ^ " worker in [0, d)")
              true
              (workers.(i) >= 0 && workers.(i) < d))
          runs
      done)
    [ 0; 1; 7; 100 ]

let test_raise_reaches_caller () =
  List.iter
    (fun domains ->
      let n = 50 in
      let finished = Atomic.make 0 in
      Alcotest.check_raises
        (Printf.sprintf "domains=%d re-raises" domains)
        Boom
        (fun () ->
          Support.Pool.run ~domains n (fun ~worker:_ i ->
              if i = 3 then raise Boom;
              Atomic.incr finished));
      (* With more than one worker the others drain the range, and they
         are all joined before the re-raise. *)
      if domains > 1 then
        Alcotest.(check int) "other workers drained the range" (n - 1)
          (Atomic.get finished);
      let total = Atomic.make 0 in
      Support.Pool.run ~domains n (fun ~worker:_ _ -> Atomic.incr total);
      Alcotest.(check int) "a later run still works" n (Atomic.get total))
    [ 1; 2; 4 ]

let suite =
  [
    Alcotest.test_case "every index runs once on a worker in [0, d)" `Quick
      test_every_index_once;
    Alcotest.test_case "a raising task reaches the caller after the joins"
      `Quick test_raise_reaches_caller;
  ]
