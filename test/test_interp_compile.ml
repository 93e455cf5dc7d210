(* Differential tests for the staged compile-to-closure execution engine:
   on every workload and on random programs, the compiled engine must
   produce buffers bit-identical to the tree-walking reference
   ([Ref_interp]). *)

open Ir
module A = Affine.Affine_ops
module B = Interp.Buffer
module E = Affine_expr
module W = Workloads.Polybench

(* Run [fname] of module [m] through the reference and the compiled
   engine on identical random inputs and require bit-identical output
   buffers, NaN payloads included (not approx_equal: both execute the
   same float operations in the same order). *)
let engines_agree ?(seed = 17) m fname =
  Ref_interp.all_same_bits
    (Ref_interp.run_on_random m fname ~seed)
    (Interp.Eval.run_on_random m fname ~seed)

let check_engines_agree name m fname =
  if not (engines_agree m fname) then
    Alcotest.failf "%s: compiled engine disagrees with the reference" name

let func_name_of m =
  Core.func_name
    (List.hd
       (List.filter Core.is_func (Core.ops_of_block (Core.module_block m))))

(* The 16 kernels, plus the plain gemm [mm] (a Figure-8 kernel, not in
   the suite), at loop level. *)
let loop_level_inputs () = ("mm", W.mm ~ni:6 ~nj:5 ~nk:4 ()) :: W.tiny_suite ()

let test_engines_agree_affine_level () =
  List.iter
    (fun (name, src) ->
      let m = Met.Emit_affine.translate src in
      check_engines_agree (name ^ "/affine") m (func_name_of m))
    (loop_level_inputs ())

let test_engines_agree_scf_level () =
  List.iter
    (fun (name, src) ->
      let m = Met.Emit_affine.translate src in
      Transforms.Lower_affine.run m;
      Verifier.verify m;
      check_engines_agree (name ^ "/scf") m (func_name_of m))
    (loop_level_inputs ())

let test_engines_agree_linalg_level () =
  (* After raising, execution goes through the kernels both the reference
     and the compiled engine dispatch to; they must still agree
     bit-for-bit. *)
  List.iter
    (fun (name, src) ->
      let m = Met.Emit_affine.translate src in
      ignore (Transforms.Canonicalize.run m);
      ignore (Transforms.Tactics.raise_to_linalg m);
      Verifier.verify m;
      check_engines_agree (name ^ "/linalg") m (func_name_of m))
    (W.tiny_suite ())

let test_engines_agree_tiled () =
  (* Tiling produces min-bounded multi-result upper bound maps — the
     interesting case for the compiled engine's bound closures. *)
  List.iter
    (fun tile ->
      let m = Met.Emit_affine.translate (W.mm ~ni:13 ~nj:7 ~nk:9 ()) in
      Transforms.Loop_tile.tile_all m ~size:tile;
      Verifier.verify m;
      check_engines_agree (Printf.sprintf "mm tiled %d" tile) m "mm")
    [ 2; 3; 5 ]

let prop_random_programs_engines_agree =
  (* Random loop nests over a single array (the mini-C generator also
     produces shapes larger than the iteration space, so some accesses
     keep non-trivial slack for the interval analysis). *)
  let gen =
    let open QCheck.Gen in
    let* depth = int_range 1 3 in
    let* extents = list_repeat depth (int_range 2 5) in
    let* pad = int_range 0 2 in
    let* scale = int_range 1 2 in
    let vars = [ "i"; "j"; "k" ] in
    let subscripts =
      String.concat ""
        (List.mapi
           (fun d _ ->
             if d = 0 && scale > 1 then
               Printf.sprintf "[%d * %s]" scale (List.nth vars d)
             else Printf.sprintf "[%s]" (List.nth vars d))
           extents)
    in
    let dims =
      String.concat ""
        (List.mapi
           (fun d e ->
             Printf.sprintf "[%d]"
               ((e * if d = 0 then scale else 1) + pad))
           extents)
    in
    let stmt =
      Printf.sprintf "A%s = A%s * 0.5 + 1.25;" subscripts subscripts
    in
    let rec loops d =
      if d = depth then stmt
      else
        Printf.sprintf "for (int %s = 0; %s < %d; ++%s) { %s }"
          (List.nth vars d) (List.nth vars d) (List.nth extents d)
          (List.nth vars d)
          (loops (d + 1))
    in
    return (Printf.sprintf "void f(float A%s) { %s }" dims (loops 0))
  in
  QCheck.Test.make ~name:"random nests: compiled engine = reference (bitwise)"
    ~count:60
    (QCheck.make ~print:Fun.id gen)
    (fun src ->
      let m = Met.Emit_affine.translate src in
      engines_agree m "f"
      && engines_agree (Met.Emit_affine.translate src) "f" ~seed:43)

(* ---- fused multiply-accumulate nests ------------------------------------ *)

(* One generated nest of 1-4 [affine.for] levels around
   [S[..] = C[..] + A[..] * B[..]] over 2-d arrays of extent [mac_u + 1],
   in every operand and load order, with aliasing stores, operands that
   read the stored array, reductions into one element, reversed
   (negative-coefficient) and shifted subscripts over any level's iv,
   constant, iv-dependent and [min]/[max] bounds, steps 1-3, zero-trip
   levels, tiled variants and one optional non-perfect level. Every iv
   stays in [0, mac_u). *)
let mac_u = 6

type mac_sub =
  | Iv of int * [ `Plain | `Rev | `Shift ]  (** the iv of level [v] *)
  | Cst of int

(* A lower bound [c], [v_p + d] or [max(c, v_p + d)]; an upper bound the
   same with [min]. *)
type mac_bound = Const of int | Outer of int * int | Clamp of int * int * int

type mac_level = { lb : mac_bound; ub : mac_bound; step : int }

type mac_draw = {
  levels : mac_level array;  (** outermost first; the last runs the MAC *)
  split : int option;
      (** a level whose body also holds a dead [affine.apply]: the nest
          below it fuses, the levels down to it do not *)
  subs : (mac_sub * mac_sub) array;  (** A, B, C loads, then the store *)
  store_arr : int;  (** 0-2: A, B, C (aliasing a load); 3: a fresh D *)
  load_arrs : int array;
      (** the arrays the A, B and C loads read: their own ([0; 1; 2]), or
          an operand reads the stored array, as in
          [C[i][j] = C[i][j] + C[i][k] * C[k][j]] *)
  load_order : int list;  (** emission order of the A, B, C loads *)
  mul_swap : bool;  (** [mulf(b, a)] *)
  product_first : bool;  (** [addf(a * b, c)] *)
  mul_last : bool;  (** [mulf] after all three loads *)
  tile : int option;
  oob : bool;  (** A's row subscript runs past its extent *)
  fill_seed : int;
}

let mac_sub_expr = function
  | Iv (v, `Plain) -> E.dim v
  | Iv (v, `Rev) -> E.sub (E.const (mac_u - 1)) (E.dim v)
  | Iv (v, `Shift) -> E.add (E.dim v) (E.const 1)
  | Cst c -> E.const c

let mac_print d =
  let iv v = Printf.sprintf "v%d" v in
  let sub = function
    | Iv (v, `Plain) -> iv v
    | Iv (v, `Rev) -> Printf.sprintf "%d-%s" (mac_u - 1) (iv v)
    | Iv (v, `Shift) -> iv v ^ "+1"
    | Cst c -> string_of_int c
  in
  let bound sel = function
    | Const c -> string_of_int c
    | Outer (p, k) -> Printf.sprintf "%s%+d" (iv p) k
    | Clamp (c, p, k) -> Printf.sprintf "%s(%d, %s%+d)" sel c (iv p) k
  in
  let acc n (s0, s1) = Printf.sprintf "%s[%s][%s]" n (sub s0) (sub s1) in
  Printf.sprintf
    "%s; split %s: %s = %s; loads %s, mul_swap %b, product_first %b, \
     mul_last %b, tile %s, oob %b, fill %d"
    (String.concat ", "
       (Array.to_list
          (Array.mapi
             (fun l lv ->
               Printf.sprintf "%s [%s,%s) step %d" (iv l) (bound "max" lv.lb)
                 (bound "min" lv.ub) lv.step)
             d.levels)))
    (match d.split with Some p -> iv p | None -> "-")
    (acc (String.make 1 "ABCD".[d.store_arr]) d.subs.(3))
    (let arr l = String.make 1 "ABCD".[d.load_arrs.(l)] in
     Printf.sprintf "%s + %s * %s" (acc (arr 2) d.subs.(2))
       (acc (arr 0) d.subs.(0)) (acc (arr 1) d.subs.(1)))
    (String.concat ""
       (List.map (fun l -> String.make 1 "ABC".[l]) d.load_order))
    d.mul_swap d.product_first d.mul_last
    (match d.tile with Some t -> string_of_int t | None -> "-")
    d.oob d.fill_seed

let gen_mac =
  let open QCheck.Gen in
  let* depth = int_range 1 4 in
  let* tile = opt ~ratio:0.25 (int_range 2 3) in
  let level l =
    match tile with
    (* Tiling takes zero-based unit-step loops. *)
    | Some _ ->
        map (fun ub -> { lb = Const 0; ub = Const ub; step = 1 })
          (int_range 1 mac_u)
    | None ->
        let outer = int_range 0 (max 0 (l - 1)) in
        let choose const dependent =
          if l = 0 then const else frequency [ (2, const); (3, dependent) ]
        in
        let* lb =
          choose
            (map (fun c -> Const c) (int_range 0 3))
            (oneof
               [
                 map (fun p -> Outer (p, 0)) outer;
                 map3 (fun c p k -> Clamp (c, p, k)) (int_range 0 2) outer
                   (int_range (-2) 0);
               ])
        in
        let* ub =
          choose
            (map (fun c -> Const c) (int_range 0 mac_u))
            (oneof
               [
                 map (fun p -> Outer (p, 1)) outer;
                 map3 (fun c p k -> Clamp (c, p, k)) (int_range 1 mac_u) outer
                   (int_range 1 3);
               ])
        in
        let* step = int_range 1 3 in
        return { lb; ub; step }
  in
  let* levels = flatten_l (List.init depth level) in
  let* split =
    if tile <> None || depth = 1 then return None
    else opt ~ratio:0.3 (int_range 0 (depth - 2))
  in
  let sub_below n =
    frequency
      ((if n = 0 then []
        else
          [
            (6, map2 (fun v f -> Iv (v, f)) (int_range 0 (n - 1))
                  (oneofl [ `Plain; `Rev; `Shift ]));
          ])
      @ [ (1, map (fun c -> Cst c) (int_range 0 mac_u)) ])
  in
  let sub = sub_below depth in
  (* A reduction stores to the element its C load reads, off the
     innermost iv, so the accumulator may stay in a register. *)
  let* reduction = map (fun r -> r = 0) (int_range 0 3) in
  let* ab = list_repeat 2 (pair sub sub) in
  let* c =
    if reduction then pair (sub_below (depth - 1)) (sub_below (depth - 1))
    else pair sub sub
  in
  (* [C[c0][c1] += C[c0][v] * B[..]], the innermost iv [v] running over
     [0, mac_u), reads the accumulated element where [v = c1]. *)
  let* witness = map (fun w -> reduction && w) bool in
  let* c1 = int_range 1 (mac_u - 1) in
  let c = if witness then (fst c, Cst c1) else c in
  let ab =
    if witness then (fst c, Iv (depth - 1, `Plain)) :: List.tl ab else ab
  in
  let levels =
    if witness then
      List.mapi
        (fun l lv ->
          if l = depth - 1 then { lb = Const 0; ub = Const mac_u; step = 1 }
          else lv)
        levels
    else levels
  in
  let loads = ab @ [ c ] in
  let* store_arr = if reduction then return 2 else int_range 0 3 in
  let* same = if reduction then return true else bool in
  let* own = pair sub sub in
  let store =
    if store_arr < 3 && same then List.nth loads store_arr else own
  in
  let* reads_stored = pair (int_range 0 2) (int_range 0 2) in
  let load_arrs =
    [| (if witness || fst reads_stored = 0 then store_arr else 0);
       (if snd reads_stored = 0 then store_arr else 1); 2 |]
  in
  let* load_order = shuffle_l [ 0; 1; 2 ] in
  let* mul_swap = bool in
  let* product_first = bool in
  let* mul_last = bool in
  let* oob = map (fun r -> r = 0 && not witness) (int_range 0 9) in
  let* fill_seed = int_bound 1_000_000 in
  return
    {
      levels = Array.of_list levels;
      split;
      subs = Array.of_list (loads @ [ store ]);
      store_arr;
      load_arrs;
      load_order;
      mul_swap;
      product_first;
      mul_last;
      tile;
      oob;
      fill_seed;
    }

(* The depth of the fused nest: every level below the split, or the whole
   nest, which tiling deepens by one tile loop per tiled level (a depth-1
   nest is left untiled). *)
let mac_fused_depth d =
  let n = Array.length d.levels in
  if d.oob then 0
  else
    match (d.split, d.tile) with
    | Some p, _ -> n - 1 - p
    | None, Some t when n > 1 ->
        n
        + Array.fold_left
            (fun acc lv ->
              match lv.ub with Const ub when t < ub -> acc + 1 | _ -> acc)
            0 d.levels
    | None, _ -> n

let oob_loc = Support.Loc.make ~file:"mac.c" ~line:3 ~col:7

let mac_func d =
  let typ = Typ.memref [ mac_u + 1; mac_u + 1 ] Typ.F32 in
  let f =
    Core.create_func ~name:"mac" ~arg_types:[ typ; typ; typ; typ ]
      ~arg_hints:[ "A"; "B"; "C"; "D" ] ()
  in
  let arrs = Array.of_list (Core.func_args f) in
  let depth = Array.length d.levels in
  let body b ivs =
    let map (s0, s1) =
      (Affine_map.make ~n_dims:depth [ mac_sub_expr s0; mac_sub_expr s1 ], ivs)
    in
    let vals = Array.make 3 arrs.(0) and prod = ref arrs.(0) in
    (* The mulf follows the later of A's and B's loads, or all three. *)
    let pos l = Option.get (List.find_index (( = ) l) d.load_order) in
    let mul_at = if d.mul_last then 2 else max (pos 0) (pos 1) in
    List.iteri
      (fun n l ->
        let access =
          if l = 0 && d.oob then
            (* Row [v + u + 1] of the innermost iv is past the extent on
               every trip. *)
            ( Affine_map.make ~n_dims:depth
                [ E.add (E.dim (depth - 1)) (E.const (mac_u + 1));
                  mac_sub_expr (snd d.subs.(0)) ],
              ivs )
          else map d.subs.(l)
        in
        vals.(l) <- A.load b arrs.(d.load_arrs.(l)) access;
        (if l = 0 && d.oob then
           match vals.(0).Core.v_def with
           | Core.Def_op (op, _) -> op.Core.o_loc <- oob_loc
           | Core.Def_block_arg _ -> ());
        if n = mul_at then
          prod :=
            if d.mul_swap then Std_dialect.Arith.mulf b vals.(1) vals.(0)
            else Std_dialect.Arith.mulf b vals.(0) vals.(1))
      d.load_order;
    let p = !prod in
    let sum =
      if d.product_first then Std_dialect.Arith.addf b p vals.(2)
      else Std_dialect.Arith.addf b vals.(2) p
    in
    ignore (A.store b sum arrs.(d.store_arr) (map d.subs.(3)))
  in
  let bound ivs = function
    | Const c -> (Affine_map.constant_map [ c ], [])
    | Outer (p, k) ->
        (Affine_map.make ~n_dims:1 [ E.add (E.dim 0) (E.const k) ],
         [ List.nth ivs p ])
    | Clamp (c, p, k) ->
        (Affine_map.make ~n_dims:1 [ E.const c; E.add (E.dim 0) (E.const k) ],
         [ List.nth ivs p ])
  in
  let rec nest b l ivs =
    if l = depth then body b ivs
    else begin
      let lv = d.levels.(l) in
      if d.split = Some (l - 1) then
        ignore
          (A.apply b (Affine_map.make ~n_dims:1 [ E.dim 0 ])
             [ List.nth ivs (l - 1) ]);
      ignore
        (A.for_ b ~lb:(bound ivs lv.lb) ~ub:(bound ivs lv.ub) ~step:lv.step
           (fun b iv -> nest b (l + 1) (ivs @ [ iv ])))
    end
  in
  nest (Builder.at_end (Core.func_entry f)) 0 [];
  (* A tiled nest is perfect from the top. It is tiled without asking
     the dependence test: both engines run the same tiled function,
     whether or not it computes what the untiled one does. *)
  Option.iter
    (fun size ->
      let loops = Affine.Loops.perfect_nest (List.hd (Affine.Loops.top_level_loops f)) in
      if List.length loops > 1 then
        Transforms.Loop_tile.tile_nest loops ~sizes:(List.map (fun _ -> size) loops))
    d.tile;
  f

(* Finite values, NaNs with distinct payloads (either sign), -0.0 and
   infinities. *)
let mac_inputs seed =
  let st = Random.State.make [| seed |] in
  List.init 4 (fun _ ->
      B.init [ mac_u + 1; mac_u + 1 ] (fun _ ->
          match Random.State.int st 12 with
          | 0 | 1 ->
              let payload = Int64.of_int (1 + Random.State.int st 0xFFFF) in
              let nan = Int64.logor 0x7FF8_0000_0000_0000L payload in
              Int64.float_of_bits
                (if Random.State.bool st then Int64.logor Int64.min_int nan
                 else nan)
          | 2 -> -0.0
          | 3 -> Float.infinity
          | 4 -> Float.neg_infinity
          | _ -> Random.State.float st 4.0 -. 2.0))

let prop_fused_mac_is_reference =
  QCheck.Test.make
    ~name:"fused multiply-accumulate loops = reference (bitwise, NaN payloads)"
    ~count:400
    (QCheck.make ~print:mac_print gen_mac)
    (fun d ->
      let f = mac_func d in
      let c = Interp.Compile.compile_func f in
      let run exec =
        let args = mac_inputs d.fill_seed in
        match exec args with () -> Ok args | exception e -> Error e
      in
      let walk = run (Ref_interp.run_func f) in
      let fused = run (Interp.Compile.execute c) in
      c.Interp.Compile.c_fused_loops = (if d.oob then 0 else 1)
      && c.Interp.Compile.c_fused_levels = mac_fused_depth d
      &&
      match (walk, fused) with
      | Ok w, Ok x -> Ref_interp.all_same_bits w x
      | ( Error (Support.Diag.Error (wloc, wmsg)),
          Error (Support.Diag.Error (loc, msg)) ) ->
          d.oob && Support.Loc.equal loc oob_loc && Support.Loc.equal wloc loc
          && wmsg = msg
      | _ -> false)

(* ---- reshape copies -------------------------------------------------- *)

(* One generated copy nest over an iteration shape [iter] (steps 1-2 or
   tiled) with [l] the ivs' row-major linear index over [iter] plus
   [shift]: the flat side [F] (shape [iter]) is read or written at the
   ivs, the digit side [G] (shape [digits]) at the mixed-radix digits of
   [l], the first possibly without its [mod]. Where [l] may pass [G]'s
   size, the fold must not apply: a [mod] digit wraps and a first digit
   without one runs out of bounds. *)
type reshape_draw = {
  iter : int array;
  steps : int array;
  digits : int array;
  shift : int;
  first_mod : bool;
  load_digits : bool;  (** [F[ivs] = G[digits]]; else [G[digits] = F[ivs]] *)
  rtile : int option;
  rfill : int;
}

let reshape_print d =
  let ints a = String.concat "x" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf
    "iter %s steps %s, digits %s, shift %d, first_mod %b, load_digits %b, \
     tile %s, fill %d"
    (ints d.iter) (ints d.steps) (ints d.digits) d.shift d.first_mod
    d.load_digits
    (match d.rtile with Some t -> string_of_int t | None -> "-")
    d.rfill

let gen_reshape =
  let open QCheck.Gen in
  let shape = map Array.of_list (list_size (int_range 1 3) (int_range 1 5)) in
  let* iter = shape in
  let* rtile = opt ~ratio:0.25 (int_range 2 3) in
  let* steps =
    if rtile <> None then return (Array.map (fun _ -> 1) iter)
    else
      map Array.of_list
        (flatten_l
           (List.map
              (fun _ -> frequency [ (3, return 1); (1, return 2) ])
              (Array.to_list iter)))
  in
  let* digits = shape in
  let* shift = frequency [ (4, return 0); (1, return 1) ] in
  let* first_mod = frequency [ (3, return true); (1, return false) ] in
  let* load_digits = bool in
  let* rfill = int_bound 1_000_000 in
  return { iter; steps; digits; shift; first_mod; load_digits; rtile; rfill }

let row_strides shape =
  let n = Array.length shape in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * shape.(i + 1)
  done;
  st

(* Whether the copy must walk natively, from the largest [l] the nest
   reaches (each iv's last value below its extent): [Some true] when [l]
   stays inside [G], [Some false] when it may leave it; [None] when a
   digit has extent 1 ([mod 1] simplifies to 0, so a subscript may be
   linear without a fold). *)
let reshape_native d =
  let st = row_strides d.iter in
  let max_l = ref d.shift in
  Array.iteri
    (fun i n ->
      let last = (n - 1) / d.steps.(i) * d.steps.(i) in
      max_l := !max_l + (st.(i) * last))
    d.iter;
  if Array.exists (fun n -> n = 1) d.digits then None
  else Some (!max_l < Array.fold_left ( * ) 1 d.digits)

let reshape_func d =
  let typ shape = Typ.memref (Array.to_list shape) Typ.F32 in
  let f =
    Core.create_func ~name:"reshape" ~arg_types:[ typ d.iter; typ d.digits ]
      ~arg_hints:[ "F"; "G" ] ()
  in
  let[@warning "-8"] [ fa; ga ] = Core.func_args f in
  let depth = Array.length d.iter in
  let st = row_strides d.iter and q = row_strides d.digits in
  let l =
    Array.fold_left E.add (E.const d.shift)
      (Array.mapi (fun i s -> E.mul (E.const s) (E.dim i)) st)
  in
  let digit i n =
    let quot = if q.(i) = 1 then l else E.floor_div l (E.const q.(i)) in
    if i = 0 && not d.first_mod then quot else E.mod_ quot (E.const n)
  in
  let flat ivs = (Affine_map.identity depth, ivs) in
  let dig ivs =
    ( Affine_map.make ~n_dims:depth
        (Array.to_list (Array.mapi digit d.digits)),
      ivs )
  in
  let rec nest b lvl ivs =
    if lvl = depth then
      if d.load_digits then
        ignore (A.store b (A.load b ga (dig ivs)) fa (flat ivs))
      else ignore (A.store b (A.load b fa (flat ivs)) ga (dig ivs))
    else
      ignore
        (A.for_const b ~lb:0 ~ub:d.iter.(lvl) ~step:d.steps.(lvl) (fun b iv ->
             nest b (lvl + 1) (ivs @ [ iv ])))
  in
  nest (Builder.at_end (Core.func_entry f)) 0 [];
  Option.iter (fun size -> Transforms.Loop_tile.tile_all f ~size) d.rtile;
  f

let prop_reshape_copy_is_reference =
  QCheck.Test.make
    ~name:"reshape copy nests = reference (bitwise, native where proven)"
    ~count:400
    (QCheck.make ~print:reshape_print gen_reshape)
    (fun d ->
      let f = reshape_func d in
      let c = Interp.Compile.compile_func f in
      let run exec =
        let st = Random.State.make [| d.rfill |] in
        let args =
          List.map
            (fun shape ->
              B.init (Array.to_list shape) (fun _ ->
                  if Random.State.int st 8 = 0 then
                    Int64.float_of_bits
                      (Int64.logor 0x7FF8_0000_0000_0000L
                         (Int64.of_int (1 + Random.State.int st 0xFFFF)))
                  else Random.State.float st 4.0 -. 2.0))
            [ d.iter; d.digits ]
        in
        match exec args with () -> Ok args | exception e -> Error e
      in
      let walk = run (Ref_interp.run_func f) in
      let native = run (Interp.Compile.execute c) in
      Option.fold ~none:true
        ~some:(fun n -> c.Interp.Compile.c_copy_loops = Bool.to_int n)
        (reshape_native d)
      &&
      match (walk, native) with
      | Ok w, Ok x -> Ref_interp.all_same_bits w x
      | ( Error (Support.Diag.Error (wloc, wmsg)),
          Error (Support.Diag.Error (loc, msg)) ) ->
          Support.Loc.equal wloc loc && wmsg = msg
      | _ -> false)

(* ---- introspection: static bounds proof -------------------------------- *)

let compile_mm () =
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  Interp.Compile.compile_func (Option.get (Core.find_func m "mm"))

let test_mm_compiles_fully_unchecked () =
  let c = compile_mm () in
  Alcotest.(check int) "no checked accesses" 0
    c.Interp.Compile.c_checked_accesses;
  Alcotest.(check int) "all four accesses unchecked" 4
    c.Interp.Compile.c_unchecked_accesses;
  Alcotest.(check int) "the i, j, k nest runs fused" 1
    c.Interp.Compile.c_fused_loops;
  Alcotest.(check int) "as one walk of three levels" 3
    c.Interp.Compile.c_fused_levels

let test_frame_is_dense_and_reusable () =
  let c = compile_mm () in
  Alcotest.(check bool) "int frame is small and dense" true
    (c.Interp.Compile.c_n_ints <= 16);
  (* One compilation, many executions. *)
  let args () =
    List.init 3 (fun i ->
        let b = B.create [ 8; 8 ] in
        B.randomize ~seed:i b;
        b)
  in
  let a1 = args () and a2 = args () in
  Interp.Compile.execute c a1;
  Interp.Compile.execute c a2;
  List.iter2
    (fun x y -> Alcotest.(check (float 0.)) "deterministic re-execution" 0.
        (B.max_abs_diff x y))
    a1 a2

let test_unprovable_access_uses_checked_fallback () =
  (* A[i * (2 - i)] for i in [0,3) only ever touches A[0] and A[1], but
     interval analysis sees [0*0, 2*2] = [0,4] over shape [2]: it must take
     the checked fallback — and still agree with the reference. *)
  let f =
    Core.create_func ~name:"quad" ~arg_types:[ Typ.memref [ 2 ] Typ.F32 ]
      ~arg_hints:[ "A" ] ()
  in
  let a = List.hd (Core.func_args f) in
  let b = Builder.at_end (Core.func_entry f) in
  let lb = Std_dialect.Arith.constant_index b 0 in
  let ub = Std_dialect.Arith.constant_index b 3 in
  let step = Std_dialect.Arith.constant_index b 1 in
  ignore
    (Std_dialect.Scf.for_ b ~lb ~ub ~step (fun b i ->
         let two = Std_dialect.Arith.constant_index b 2 in
         let t = Std_dialect.Arith.subi b two i in
         let u = Std_dialect.Arith.muli b i t in
         let v = Std_dialect.Memref_ops.load b a [ u ] in
         let one = Std_dialect.Arith.constant_float b 1. in
         let w = Std_dialect.Arith.addf b v one in
         ignore (Std_dialect.Memref_ops.store b w a [ u ])));
  let c = Interp.Compile.compile_func f in
  Alcotest.(check bool) "took the checked fallback" true
    (c.Interp.Compile.c_checked_accesses > 0);
  let buf () =
    let x = B.create [ 2 ] in
    B.randomize ~seed:5 x;
    x
  in
  let bw = buf () and bc = buf () in
  Ref_interp.run_func f [ bw ];
  Interp.Compile.execute c [ bc ];
  Alcotest.(check bool) "checked path agrees with the reference" true
    (Ref_interp.same_bits bw bc)

let test_out_of_bounds_still_detected () =
  (* Shrinking the declared shape under the loop extent makes the access
     genuinely out of bounds: the reference and the compiled engine must
     refuse it (not read out of the buffer). Both raise the same
     [Diag.Error], located at the access, naming the dimension, the index
     and the extent. *)
  let m = Met.Emit_affine.translate ~file:"mm.c" (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  let f = Option.get (Core.find_func m "mm") in
  List.iter
    (fun (p : Core.value) -> p.Core.v_typ <- Typ.memref [ 3; 3 ] Typ.F32)
    (Core.func_args f);
  let run run_func =
    run_func f (List.init 3 (fun _ -> B.create [ 3; 3 ]))
  in
  let walked =
    match run Ref_interp.run_func with
    | () -> Alcotest.fail "reference: expected out-of-bounds"
    | exception Support.Diag.Error (loc, msg) -> Support.Diag.to_string loc msg
  in
  match run Interp.Eval.run_func with
  | () -> Alcotest.fail "compiled: expected out-of-bounds"
  | exception Support.Diag.Error (loc, msg) ->
      Alcotest.(check string) "the reference fails the same way"
        (Support.Diag.to_string loc msg) walked;
      let accesses = ref [] in
      Core.walk f (fun op ->
          if op.Core.o_name = "affine.load" || op.Core.o_name = "affine.store"
          then accesses := Support.Loc.to_string op.Core.o_loc :: !accesses);
      Alcotest.(check bool)
        ("located at an access: " ^ Support.Loc.to_string loc)
        true
        (Support.Loc.is_known loc
        && List.mem (Support.Loc.to_string loc) !accesses);
      Alcotest.(check bool) ("names index and extent: " ^ msg) true
        (Astring_contains.contains msg "index 3 out of bounds [0, 3) at dim")

(* ---- fused-loop counts at the verify benchmark's sizes ------------------ *)

(* The 16 Figure-9 kernels with every iteration space cut to about 1/27,
   as perfbench's [verify] workload runs them. *)
let verify_kernels () =
  let lvl2 = 48 and mmn = 32 and gsz = 40 in
  [
    ("atax", W.atax ~m:lvl2 ~n:lvl2 ());
    ("bicg", W.bicg ~m:lvl2 ~n:lvl2 ());
    ("gemver", W.gemver ~n:lvl2 ());
    ("gesummv", W.gesummv ~n:lvl2 ());
    ("mvt", W.mvt ~n:lvl2 ());
    ("2mm", W.two_mm ~ni:mmn ~nj:mmn ~nk:mmn ~nl:mmn ());
    ("3mm", W.three_mm ~ni:mmn ~nj:mmn ~nk:mmn ~nl:mmn ~nm:mmn ());
    ("gemm", W.gemm ~ni:gsz ~nj:gsz ~nk:gsz ());
    ("conv2d-nchw", W.conv2d_nchw ~c:4 ~h:16 ~w:16 ~f:4 ~kh:5 ~kw:5 ());
  ]
  @ List.map
      (fun (name, spec, sizes) ->
        let scale = 27. ** (-1. /. float_of_int (List.length sizes)) in
        let shrink (c, n) =
          let half = Float.round (float_of_int n *. scale /. 2.) in
          (c, max 2 (2 * int_of_float half))
        in
        ( name,
          Workloads.Contraction_spec.c_source spec
            ~sizes:(List.map shrink sizes) ~name:"contraction" () ))
      (Workloads.Contraction_spec.paper_benchmarks ())

(* [c_fused_loops] and [c_fused_levels] of the reference kernel, then
   under clang-O3, pluto-default, mlt-linalg, mlt-blas and mlt-affine-blis:
   one row of each per kernel. *)
let fused_loops_table () =
  let module P = Mlt.Pipeline in
  let fused m =
    let f = Option.get (Core.find_func m (func_name_of m)) in
    let c = Interp.Compile.compile_func f in
    (c.Interp.Compile.c_fused_loops, c.Interp.Compile.c_fused_levels)
  in
  let row name xs =
    Printf.sprintf "%s %s" name (String.concat " " (List.map string_of_int xs))
  in
  List.split
    (List.map
       (fun (name, src) ->
         let counts =
           fused (Met.Emit_affine.translate src)
           :: List.map
                (fun c ->
                  fused
                    (P.prepare_schedule_module (P.Config c)
                       (Met.Emit_affine.translate src)))
                P.
                  [
                    Clang_O3; Pluto_default; Mlt_linalg; Mlt_blas;
                    Mlt_affine_blis;
                  ]
         in
         (row name (List.map fst counts), row name (List.map snd counts)))
       (verify_kernels ()))

let test_fused_loops_table () =
  (* pluto-default fuses bicg's, gesummv's and mvt's two statements into
     one body, which stays on the closure path. mlt-blas and
     mlt-affine-blis leave library calls, each run as its lowered nest:
     one per BLAS call or [affine.matmul], a TTGT contraction's GEMM
     three levels deep. Each fused nest holds one statement, so the loop
     counts are those of the innermost-only fusion; the levels are the
     nests' summed depths. *)
  let loops, levels = fused_loops_table () in
  Alcotest.(check (list string)) "fused loops: reference + 5 schedules"
    [
      "atax 2 2 2 2 2 2";
      "bicg 2 2 0 2 2 2";
      "gemver 2 2 2 2 2 2";
      "gesummv 2 2 0 2 2 2";
      "mvt 2 2 0 2 2 2";
      "2mm 2 2 2 2 2 2";
      "3mm 3 3 3 3 3 3";
      "gemm 1 1 1 1 1 1";
      "conv2d-nchw 1 1 1 1 1 1";
      "ab-acd-dbc 1 1 1 1 1 1";
      "abc-acd-db 1 1 1 1 1 1";
      "abc-ad-bdc 1 1 1 1 1 1";
      "ab-cad-dcb 1 1 1 1 1 1";
      "abc-bda-dc 1 1 1 1 1 1";
      "abcd-aebf-dfce 1 1 1 1 1 1";
      "abcd-aebf-fdec 1 1 1 1 1 1";
    ]
    loops;
  Alcotest.(check (list string)) "fused levels: reference + 5 schedules"
    [
      "atax 4 4 2 8 4 4";
      "bicg 4 4 0 8 4 4";
      "gemver 4 4 8 8 4 4";
      "gesummv 4 4 0 8 4 4";
      "mvt 4 4 0 8 4 4";
      "2mm 6 6 6 6 6 6";
      "3mm 9 9 9 9 9 9";
      "gemm 3 3 6 6 3 3";
      "conv2d-nchw 7 7 7 7 7 7";
      "ab-acd-dbc 4 4 4 4 3 4";
      "abc-acd-db 4 4 4 4 3 4";
      "abc-ad-bdc 4 4 4 4 3 4";
      "ab-cad-dcb 4 4 4 4 3 4";
      "abc-bda-dc 4 4 4 4 3 4";
      "abcd-aebf-dfce 6 6 6 6 3 6";
      "abcd-aebf-fdec 6 6 6 6 3 6";
    ]
    levels

(* ---- identical schedules and native copies at the verify sizes -------- *)

(* The verify benchmark's 80 checks, counted per configuration: checks
   whose schedule left the function structurally equal to the reference
   run it once (an [interp]/[check] span with [identical]), the others
   run both, so the exec spans are 2 per kernel less the identical. *)
let test_identical_schedules_run_once () =
  let module P = Mlt.Pipeline in
  let kernels = verify_kernels () in
  let row config =
    let identical = ref 0 and execs = ref 0 in
    let sink (e : Trace.event) =
      if e.ev_cat = "interp" && e.ev_phase = Trace.Begin then
        match (e.ev_name, List.assoc_opt "identical" e.ev_args) with
        | "check", Some (Trace.A_bool true) -> incr identical
        | "exec", _ -> incr execs
        | _ -> ()
    in
    List.iter
      (fun (name, src) ->
        if
          not
            (Trace.with_sink sink (fun () ->
                 P.check_schedule_semantics (P.Config config) src))
        then
          Alcotest.failf "%s under %s changed semantics" name
            (P.config_name config))
      kernels;
    Alcotest.(check int)
      (P.config_name config ^ ": exec spans")
      ((2 * List.length kernels) - !identical)
      !execs;
    Printf.sprintf "%s %d" (P.config_name config) !identical
  in
  Alcotest.(check (list string)) "identical schedules of 16 kernels"
    [ "clang-O3 16"; "pluto-default 10"; "mlt-linalg 3"; "mlt-blas 0";
      "mlt-affine-blis 13" ]
    (List.map row
       P.[ Clang_O3; Pluto_default; Mlt_linalg; Mlt_blas; Mlt_affine_blis ])

(* The seven contractions under mlt-linalg lower through TTGT: transposes
   and reshape copies around one GEMM. Every copy nest, the reshapes'
   [floordiv]/[mod] digit subscripts included, walks natively. *)
let test_contraction_copies_walk_natively () =
  let module P = Mlt.Pipeline in
  let digits op =
    List.exists
      (function E.Mod _ | E.Floor_div _ -> true | _ -> false)
      (A.access_map op).Affine_map.exprs
  in
  let row (name, src) =
    let m = P.prepare_schedule (P.Config P.Mlt_linalg) src in
    let f = Option.get (Core.find_func m (func_name_of m)) in
    (* Copy bodies: a loop body that is one load and its store. *)
    let copies = ref 0 and reshapes = ref 0 in
    Core.walk f (fun op ->
        if A.is_for op then
          match Affine.Loops.body_ops op with
          | [ x; y ]
            when A.is_load x && A.is_store y
                 && Core.value_equal (A.stored_value y) (Core.result x 0) ->
              incr copies;
              if digits x || digits y then incr reshapes
          | _ -> ());
    let c = Interp.Compile.compile_func f in
    Printf.sprintf "%s: %d copies (%d reshapes), %d native, %d checked" name
      !copies !reshapes c.Interp.Compile.c_copy_loops
      c.Interp.Compile.c_checked_accesses
  in
  Alcotest.(check (list string)) "copy nests of the mlt-linalg contractions"
    [
      "ab-acd-dbc: 3 copies (2 reshapes), 3 native, 0 checked";
      "abc-acd-db: 5 copies (3 reshapes), 5 native, 0 checked";
      "abc-ad-bdc: 4 copies (3 reshapes), 4 native, 0 checked";
      "ab-cad-dcb: 4 copies (2 reshapes), 4 native, 0 checked";
      "abc-bda-dc: 4 copies (3 reshapes), 4 native, 0 checked";
      "abcd-aebf-dfce: 6 copies (4 reshapes), 6 native, 0 checked";
      "abcd-aebf-fdec: 6 copies (4 reshapes), 6 native, 0 checked";
    ]
    (List.map row
       (List.filteri (fun i _ -> i >= 9) (verify_kernels ())))

(* ---- every schedule's output ------------------------------------------- *)

(* Each kernel under each configuration: the pipeline's differential
   check holds, and the reference and the compiled engine leave the same
   bits on the prepared module. The tiny suite's extents stay under the
   32-wide tiles of pluto-default and mlt-linalg, where every schedule of
   a kernel may leave it as it was and the check run it once; one kernel
   per family past the tiles (a gemm, a conv, a contraction and a
   level-2 kernel) adds the min-bounded tiles, and a tiled schedule must
   run both sides. mlt-blas adds the BLAS calls and mlt-affine-blis the
   [affine.matmul] its BLIS schedule times. The counts below keep that
   coverage. *)
let test_reference_agrees_on_every_schedule () =
  let module P = Mlt.Pipeline in
  let min_bounds = ref 0 and blas = ref 0 and affine_matmul = ref 0 in
  let past_tiles =
    [
      ("mm 40x36x33", W.mm ~ni:40 ~nj:36 ~nk:33 ());
      ( "conv2d-nchw 2x36x36",
        W.conv2d_nchw ~n:1 ~c:2 ~h:36 ~w:36 ~f:2 ~kh:3 ~kw:3 () );
      ( "abc-acd-db 34x3x3x3",
        Workloads.Contraction_spec.c_source
          (Workloads.Contraction_spec.parse "abc-acd-db")
          ~sizes:[ ('a', 34); ('b', 3); ('c', 3); ('d', 3) ]
          ~name:"contraction" () );
      ("atax 40x36", W.atax ~m:40 ~n:36 ());
    ]
  in
  List.iter
    (fun (name, src) ->
      let tiled = ref 0 in
      List.iter
        (fun config ->
          let what = Printf.sprintf "%s under %s" name (P.config_name config) in
          let schedule = P.Config config in
          let identical = ref [] in
          let sink (e : Trace.event) =
            if
              e.ev_cat = "interp" && e.ev_name = "check"
              && e.ev_phase = Trace.Begin
            then identical := List.assoc_opt "identical" e.ev_args :: !identical
          in
          if
            not
              (Trace.with_sink sink (fun () ->
                   P.check_schedule_semantics schedule src))
          then Alcotest.failf "%s changed semantics" what;
          let m = P.prepare_schedule schedule src in
          let min_bounded = ref false in
          Core.walk m (fun op ->
              match op.Core.o_name with
              | "affine.for" ->
                  if Affine_map.n_results (fst (A.for_ub op)) > 1 then
                    min_bounded := true
              | "affine.matmul" -> incr affine_matmul
              | name when String.starts_with ~prefix:"blas." name -> incr blas
              | _ -> ());
          if !min_bounded then begin
            incr min_bounds;
            incr tiled;
            if !identical <> [ Some (Trace.A_bool false) ] then
              Alcotest.failf "%s: a tiled schedule did not run both sides" what
          end;
          check_engines_agree what m (func_name_of m))
        P.all_configs;
      if List.mem_assoc name past_tiles && !tiled = 0 then
        Alcotest.failf "%s: no schedule tiled it" name)
    (past_tiles @ W.tiny_suite ());
  List.iter
    (fun (what, n) -> Alcotest.(check bool) what true (!n > 0))
    [
      ("min-bounded tiles ran", min_bounds);
      ("BLAS calls ran", blas);
      ("affine.matmul ran", affine_matmul);
    ]

let suite =
  [
    Alcotest.test_case "engines agree: all kernels, affine level" `Quick
      test_engines_agree_affine_level;
    Alcotest.test_case "engines agree: all kernels, scf level" `Quick
      test_engines_agree_scf_level;
    Alcotest.test_case "engines agree: all kernels, linalg level" `Quick
      test_engines_agree_linalg_level;
    Alcotest.test_case "engines agree: tiled (min-bound maps)" `Quick
      test_engines_agree_tiled;
    QCheck_alcotest.to_alcotest prop_random_programs_engines_agree;
    QCheck_alcotest.to_alcotest prop_fused_mac_is_reference;
    Alcotest.test_case "mm: every access statically proven in bounds" `Quick
      test_mm_compiles_fully_unchecked;
    Alcotest.test_case "compile once, execute many (dense frames)" `Quick
      test_frame_is_dense_and_reusable;
    Alcotest.test_case "unprovable index takes the checked fallback" `Quick
      test_unprovable_access_uses_checked_fallback;
    Alcotest.test_case "out-of-bounds detected by reference and compiled"
      `Quick test_out_of_bounds_still_detected;
    Alcotest.test_case "reference agrees on every schedule's output" `Quick
      test_reference_agrees_on_every_schedule;
    Alcotest.test_case "fused-loop counts at the verify benchmark's sizes"
      `Quick test_fused_loops_table;
    Alcotest.test_case "identical schedules run once at the verify sizes"
      `Quick test_identical_schedules_run_once;
    Alcotest.test_case "contraction copies walk natively under mlt-linalg"
      `Quick test_contraction_copies_walk_natively;
    QCheck_alcotest.to_alcotest prop_reshape_copy_is_reference;
  ]
