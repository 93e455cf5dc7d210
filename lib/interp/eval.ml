open Ir

type engine = Compiled

let default_engine = ref Compiled

let m_exec_seconds =
  Support.Once.make (fun () ->
      Metrics.histogram ~help:"interpreter function-execution latency"
        "mlt_interp_exec_seconds")

let run_func f args =
  Metrics.time (Support.Once.get m_exec_seconds)
  @@ fun () ->
  Trace.span ~cat:"interp"
    ~args:[ ("func", Trace.A_str (Core.func_name f)) ]
    "exec"
  @@ fun () -> Compile.execute (Compile.compile_func f) args

let find m name =
  match Core.find_func m name with
  | Some f -> f
  | None -> Rt.error_at m "interp: no function named %S" name

let run m name args = run_func (find m name) args

(* The seeded battery: argument [i] filled from [seed + i]. *)
let random_args f ~seed =
  List.mapi
    (fun i (p : Core.value) ->
      let b = Buffer.of_type p.v_typ in
      Buffer.randomize ~seed:(seed + i) b;
      b)
    (Core.func_args f)

let run_on_random m name ~seed =
  let f = find m name in
  let args = random_args f ~seed in
  run_func f args;
  args

let arg_types f = List.map (fun (p : Core.value) -> p.v_typ) (Core.func_args f)

(* A second function equal to the first ([Core.structural_equal]) would
   compute the same bits from the same battery: the first runs once and
   the check answers [true]. Otherwise the battery is drawn once, and the
   second function runs on a copy taken before the first runs: equal
   argument types draw equal buffers. Other signatures draw their own,
   after the first run, as [run_on_random] does. *)
let equivalent ?eps m1 m2 name ~seed =
  let f1 = find m1 name in
  let f2 = Core.find_func m2 name in
  let identical =
    match f2 with Some f2 -> Core.structural_equal f1 f2 | None -> false
  in
  Trace.span ~cat:"interp"
    ~args:[ ("func", Trace.A_str name); ("identical", Trace.A_bool identical) ]
    "check"
  @@ fun () ->
  let r1 = random_args f1 ~seed in
  if identical then begin
    run_func f1 r1;
    true
  end
  else
    let shared =
      match f2 with
      | Some f2 when List.equal Typ.equal (arg_types f1) (arg_types f2) ->
          Some (f2, List.map Buffer.copy r1)
      | _ -> None
    in
    run_func f1 r1;
    let r2 =
      match shared with
      | Some (f2, r2) ->
          run_func f2 r2;
          r2
      | None -> run_on_random m2 name ~seed
    in
    List.length r1 = List.length r2
    && List.for_all2 (Buffer.approx_equal ?eps) r1 r2
