open Umf_numerics
open Umf_ctmc
module Pool = Umf_runtime.Runtime.Pool

(* random chain: every state gets a forward edge (so nothing is
   absorbing) plus a few extra random edges with positive rates *)
let random_chain rng n =
  let trans = ref [] in
  for i = 0 to n - 1 do
    trans := (i, (i + 1) mod n, 0.1 +. Rng.float rng) :: !trans;
    for _ = 1 to 2 do
      let j = Rng.int rng n in
      if j <> i then trans := (i, j, 0.01 +. (2. *. Rng.float rng)) :: !trans
    done
  done;
  Generator.make ~n !trans

let random_distribution rng n =
  let p = Array.init n (fun _ -> Rng.float rng +. 1e-3) in
  Vec.scale (1. /. Vec.sum p) p

let bits = Int64.bits_of_float

let check_bitwise msg a b =
  Alcotest.(check int) (msg ^ ": dim") (Vec.dim a) (Vec.dim b);
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) then
        Alcotest.failf "%s: component %d differs: %h vs %h" msg i x b.(i))
    a

let test_matches_dense_bitwise () =
  let rng = Rng.create 42 in
  for trial = 1 to 10 do
    let n = 2 + Rng.int rng 40 in
    let g = random_chain rng n in
    let rate = 1.01 *. Generator.max_exit_rate g in
    let v = random_distribution rng n in
    let dense = Mat.tmulv (Umf_reference.Dense.uniformized ~rate g) v in
    let op = Sparse.forward ~rate g in
    let into = Vec.zeros n in
    ignore (Sparse.step_into op v ~into : float);
    check_bitwise (Printf.sprintf "trial %d" trial) dense into
  done

let test_default_rate_matches () =
  let rng = Rng.create 7 in
  let g = random_chain rng 17 in
  let v = random_distribution rng 17 in
  let dense = Mat.tmulv (Umf_reference.Dense.uniformized g) v in
  let op = Sparse.forward g in
  Alcotest.(check (float 0.))
    "same default rate"
    (Float.max 1e-9 (1.01 *. Generator.max_exit_rate g))
    (Sparse.rate op);
  let into = Vec.zeros 17 in
  ignore (Sparse.step_into op v ~into : float);
  check_bitwise "default rate" dense into

let test_fused_accumulate () =
  let rng = Rng.create 9 in
  let n = 23 in
  let g = random_chain rng n in
  let op = Sparse.forward g in
  let v = random_distribution rng n in
  let w = 0.37 in
  let r0 = Array.init n (fun i -> float_of_int i /. 10.) in
  (* fused pass *)
  let acc = Vec.copy r0 and into = Vec.zeros n in
  ignore (Sparse.step_into ~acc:(w, acc) op v ~into : float);
  (* separate passes *)
  let into' = Vec.zeros n in
  ignore (Sparse.step_into op v ~into:into' : float);
  let acc' = Vec.copy r0 in
  Vec.axpy_in_place w v acc';
  check_bitwise "step" into' into;
  check_bitwise "accumulator" acc' acc

let test_pool_bit_identical () =
  (* n > the internal 4096 chunk so the pooled path actually splits *)
  let rng = Rng.create 11 in
  let n = 9000 in
  let g = random_chain rng n in
  let op = Sparse.forward g in
  let v = random_distribution rng n in
  let seq = Vec.zeros n and par = Vec.zeros n in
  let acc_seq = Vec.zeros n and acc_par = Vec.zeros n in
  ignore (Sparse.step_into ~acc:(0.5, acc_seq) op v ~into:seq : float);
  let pool = Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      ignore (Sparse.step_into ~pool ~acc:(0.5, acc_par) op v ~into:par : float));
  check_bitwise "pooled step" seq par;
  check_bitwise "pooled accumulator" acc_seq acc_par

let test_nnz_and_sizes () =
  let g = Generator.make ~n:3 [ (0, 1, 1.); (1, 2, 2.); (2, 0, 3.); (0, 2, 4.) ] in
  let op = Sparse.forward g in
  Alcotest.(check int) "n_states" 3 (Sparse.n_states op);
  Alcotest.(check int) "nnz" 4 (Sparse.nnz op);
  Alcotest.(check int) "generator nnz" 4 (Generator.nnz g)

let test_validation () =
  let g = Generator.make ~n:2 [ (0, 1, 2.); (1, 0, 3.) ] in
  Alcotest.check_raises "rate below max exit"
    (Invalid_argument "Sparse.forward: rate below max exit rate") (fun () ->
      ignore (Sparse.forward ~rate:1. g));
  let op = Sparse.forward g in
  let v = [| 0.5; 0.5 |] in
  Alcotest.check_raises "aliasing"
    (Invalid_argument "Sparse.step_into: into aliases v") (fun () ->
      ignore (Sparse.step_into op v ~into:v : float));
  Alcotest.check_raises "dimension"
    (Invalid_argument "Sparse.step_into: dimension mismatch") (fun () ->
      ignore (Sparse.step_into op v ~into:(Vec.zeros 3) : float))

let test_blocking () =
  (* blocks are fixed at assembly: a small chain is one block, a large
     one splits (<= 4096 rows per block) *)
  let small = Sparse.forward (Generator.make ~n:2 [ (0, 1, 1.); (1, 0, 1.) ]) in
  Alcotest.(check int) "small chain is one block" 1 (Sparse.n_blocks small);
  let rng = Rng.create 13 in
  let g = random_chain rng 9000 in
  let op = Sparse.forward g in
  Alcotest.(check bool) "large chain splits" true (Sparse.n_blocks op >= 3)

let test_leak_loss () =
  let rng = Rng.create 17 in
  let n = 40 in
  let g = random_chain rng n in
  let leak = Array.init n (fun i -> if i mod 3 = 0 then 0.5 else 0.) in
  let op = Sparse.forward ~leak g in
  Alcotest.(check bool) "substochastic" true (Sparse.substochastic op);
  Alcotest.(check bool)
    "exact operator is not substochastic" false
    (Sparse.substochastic (Sparse.forward g));
  let v = random_distribution rng n in
  let into = Vec.zeros n in
  let lost = Sparse.step_into op v ~into in
  (* one block at n = 40, so the escaped mass is exactly the in-order
     dot product of the per-state loss with v *)
  let rate = Sparse.rate op in
  let expected = ref 0. in
  for j = 0 to n - 1 do
    expected := !expected +. (leak.(j) /. rate *. v.(j))
  done;
  if bits lost <> bits !expected then
    Alcotest.failf "escaped mass: %h vs %h" lost !expected;
  Alcotest.(check bool) "mass balance" true
    (Float.abs (Vec.sum into +. lost -. Vec.sum v) < 1e-14)

let test_leak_pool_deterministic () =
  (* multi-block substochastic operator: pooled step and escaped mass
     are bit-identical to sequential for any domain count *)
  let rng = Rng.create 19 in
  let n = 9000 in
  let g = random_chain rng n in
  let leak = Array.init n (fun _ -> Rng.float rng *. 0.1) in
  let op = Sparse.forward ~leak g in
  let v = random_distribution rng n in
  let seq = Vec.zeros n and par = Vec.zeros n in
  let lost_seq = Sparse.step_into op v ~into:seq in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      let lost_par =
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () -> Sparse.step_into ~pool op v ~into:par)
      in
      if bits lost_seq <> bits lost_par then
        Alcotest.failf "escaped mass (%d domains): %h vs %h" domains lost_seq
          lost_par;
      check_bitwise (Printf.sprintf "pooled leak step (%d domains)" domains)
        seq par)
    [ 2; 4 ]

let test_of_rows () =
  let g = Generator.of_rows [| [| (1, 2.) |]; [| (0, 3.) |] |] in
  Alcotest.(check (float 0.)) "exit 0" 2. (Generator.exit_rate g 0);
  Alcotest.(check (float 0.)) "exit 1" 3. (Generator.exit_rate g 1);
  Alcotest.check_raises "unsorted row"
    (Invalid_argument "Generator.of_rows: row not sorted by destination")
    (fun () ->
      ignore (Generator.of_rows [| [| (2, 1.); (1, 1.) |]; [||]; [||] |]));
  Alcotest.check_raises "self loop"
    (Invalid_argument "Generator.of_rows: self loop") (fun () ->
      ignore (Generator.of_rows [| [| (0, 1.) |] |]));
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Generator.of_rows: rate not positive and finite")
    (fun () -> ignore (Generator.of_rows [| [| (1, 0.) |]; [||] |]))

let suites =
  [
    ( "sparse",
      [
        Alcotest.test_case "bitwise vs dense tmulv" `Quick
          test_matches_dense_bitwise;
        Alcotest.test_case "default rate" `Quick test_default_rate_matches;
        Alcotest.test_case "fused accumulate" `Quick test_fused_accumulate;
        Alcotest.test_case "pool bit-identical" `Quick test_pool_bit_identical;
        Alcotest.test_case "nnz and sizes" `Quick test_nnz_and_sizes;
        Alcotest.test_case "cache blocking" `Quick test_blocking;
        Alcotest.test_case "leak loss" `Quick test_leak_loss;
        Alcotest.test_case "leak pool deterministic" `Quick
          test_leak_pool_deterministic;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "of_rows" `Quick test_of_rows;
      ] );
  ]
