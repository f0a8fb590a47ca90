module Rng = Xpiler_util.Rng
module Vclock = Xpiler_util.Vclock
module Pool = Xpiler_util.Pool

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail (Printf.sprintf "out of range: %d" v)
  done

let test_rng_int_in () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "range"
  done

let test_rng_split_independent () =
  let r = Rng.create 1 in
  let a = Rng.split r in
  let b = Rng.split r in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_choose_weighted () =
  let r = Rng.create 3 in
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if Rng.choose_weighted r [ (0.9, `A); (0.1, `B) ] = `A then incr hits
  done;
  Alcotest.(check bool) "weighting respected" true (!hits > 800)

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let xs = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let ys = Rng.shuffle r xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_vclock () =
  let c = Vclock.create () in
  Vclock.charge c Vclock.Annotation 10.0;
  Vclock.charge c Vclock.Smt_solving 5.0;
  Vclock.charge c Vclock.Annotation 2.5;
  Alcotest.(check (float 1e-9)) "stage total" 12.5 (Vclock.stage_total c Vclock.Annotation);
  Alcotest.(check (float 1e-9)) "elapsed" 17.5 (Vclock.elapsed c);
  let d = Vclock.create () in
  Vclock.charge d Vclock.Unit_test 1.0;
  Vclock.merge c d;
  Alcotest.(check (float 1e-9)) "merged" 18.5 (Vclock.elapsed c);
  Vclock.reset c;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Vclock.elapsed c)

let test_vclock_merge () =
  let a = Vclock.create () and b = Vclock.create () in
  Vclock.charge a Vclock.Annotation 3.0;
  Vclock.charge b Vclock.Annotation 4.0;
  Vclock.charge b Vclock.Auto_tuning 7.0;
  Vclock.merge a b;
  Alcotest.(check (float 1e-9)) "stages add" 7.0 (Vclock.stage_total a Vclock.Annotation);
  Alcotest.(check (float 1e-9)) "new stage carried" 7.0
    (Vclock.stage_total a Vclock.Auto_tuning);
  Alcotest.(check (float 1e-9)) "src untouched" 11.0 (Vclock.elapsed b);
  (* merge must not fire dst's observer: those charges were already observed
     (if at all) on src's timeline *)
  let fired = ref 0 in
  Vclock.set_observer a (fun _ _ -> incr fired);
  Vclock.merge a b;
  Alcotest.(check int) "merge silent" 0 !fired;
  Vclock.charge a Vclock.Smt_solving 1.0;
  Alcotest.(check int) "charge observed" 1 !fired

let test_vclock_reset () =
  let c = Vclock.create () in
  Vclock.charge c Vclock.Llm_transform 9.0;
  Vclock.charge c Vclock.Unit_test 1.0;
  Vclock.reset c;
  Alcotest.(check (float 1e-9)) "elapsed zero" 0.0 (Vclock.elapsed c);
  List.iter
    (fun st ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "stage %s zero" (Vclock.stage_name st))
        0.0 (Vclock.stage_total c st))
    Vclock.all_stages;
  Vclock.charge c Vclock.Annotation 2.0;
  Alcotest.(check (float 1e-9)) "usable after reset" 2.0 (Vclock.elapsed c)

let test_vclock_breakdown_omits_zero () =
  let c = Vclock.create () in
  Alcotest.(check int) "empty clock" 0 (List.length (Vclock.breakdown c));
  Vclock.charge c Vclock.Smt_solving 5.0;
  Vclock.charge c Vclock.Annotation 1.0;
  let b = Vclock.breakdown c in
  Alcotest.(check int) "only charged stages" 2 (List.length b);
  (* canonical stage order, not charge order *)
  Alcotest.(check (list string)) "canonical order"
    [ "annotation"; "smt-solving" ]
    (List.map (fun (st, _) -> Vclock.stage_name st) b);
  Alcotest.(check bool) "no zero totals" true
    (List.for_all (fun (_, s) -> s > 0.0) b)

let test_vclock_observer () =
  let c = Vclock.create () in
  let seen = ref [] in
  Vclock.set_observer c (fun st s -> seen := (Vclock.stage_name st, s) :: !seen);
  Vclock.charge c Vclock.Annotation 2.0;
  Vclock.charge c Vclock.Unit_test 0.5;
  Alcotest.(check (list (pair string (float 1e-9)))) "charges observed in order"
    [ ("annotation", 2.0); ("unit-test", 0.5) ]
    (List.rev !seen);
  Vclock.clear_observer c;
  Vclock.charge c Vclock.Annotation 1.0;
  Alcotest.(check int) "cleared observer silent" 2 (List.length !seen)

let test_vclock_negative () =
  let c = Vclock.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Vclock.charge: negative duration")
    (fun () -> Vclock.charge c Vclock.Annotation (-1.0))

(* ---- pool: the determinism contract ------------------------------------ *)

(* the host may expose a single core, which would clamp jobs>1 to inline
   execution; lift the cap so these tests exercise real worker domains *)
let forcing_domains f =
  let saved = Pool.get_max_domains () in
  Pool.set_max_domains 4;
  Fun.protect ~finally:(fun () -> Pool.set_max_domains saved) f

let test_pool_order () =
  forcing_domains @@ fun () ->
  let inputs = List.init 23 Fun.id in
  let f _ x = x * x in
  let expect = List.map (fun x -> x * x) inputs in
  Alcotest.(check (list int)) "jobs=1" expect (Pool.map ~jobs:1 f inputs);
  Alcotest.(check (list int)) "jobs=4" expect (Pool.map ~jobs:4 f inputs)

let test_pool_rng_schedule_independent () =
  forcing_domains @@ fun () ->
  let draw task _ = List.init 5 (fun _ -> Rng.int (Pool.rng task) 1_000_000) in
  let a = Pool.map ~jobs:1 ~seed:11 draw (List.init 8 Fun.id) in
  let b = Pool.map ~jobs:4 ~seed:11 draw (List.init 8 Fun.id) in
  Alcotest.(check (list (list int))) "streams depend on (seed,index) only" a b;
  let c = Pool.map ~jobs:4 ~seed:12 draw (List.init 8 Fun.id) in
  Alcotest.(check bool) "seed matters" true (b <> c)

let test_pool_replay_order () =
  forcing_domains @@ fun () ->
  let replayed jobs =
    let log = ref [] in
    let clock = Vclock.create () in
    Vclock.set_observer clock (fun st s -> log := `C (Vclock.stage_name st, s) :: !log);
    ignore
      (Pool.map ~jobs ~clock
         (fun task i ->
           (* defer/charge interleave; replay must preserve per-task order
              and input order across tasks, whatever the schedule *)
           Pool.defer task (fun () -> log := `D (2 * i) :: !log);
           Pool.charge task Vclock.Auto_tuning (float_of_int i);
           Pool.defer task (fun () -> log := `D ((2 * i) + 1) :: !log);
           i)
         (List.init 9 Fun.id));
    (List.rev !log, Vclock.elapsed clock)
  in
  let l1, e1 = replayed 1 in
  let l4, e4 = replayed 4 in
  Alcotest.(check bool) "same event stream" true (l1 = l4);
  Alcotest.(check (float 1e-9)) "same clock" e1 e4;
  (* spot-check the canonical order for task 0 and 1 *)
  let prefix = [ `D 0; `C ("auto-tuning", 0.0); `D 1; `D 2; `C ("auto-tuning", 1.0); `D 3 ] in
  let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> [] in
  Alcotest.(check bool) "input-order replay" true (take 6 l1 = prefix)

exception Boom of int

let test_pool_first_error_by_index () =
  forcing_domains @@ fun () ->
  List.iter
    (fun jobs ->
      let effects = ref [] in
      (try
         ignore
           (Pool.map ~jobs
              (fun task i ->
                Pool.defer task (fun () -> effects := i :: !effects);
                if i = 1 || i = 3 then raise (Boom i))
              (List.init 6 Fun.id))
       with Boom n ->
         Alcotest.(check int) (Printf.sprintf "jobs=%d: earliest error wins" jobs) 1 n);
      (* effects up to and including the failing task replay; later ones drop *)
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d: effect prefix" jobs)
        [ 0; 1 ] (List.rev !effects))
    [ 1; 4 ]

let test_pool_nested_inline () =
  forcing_domains @@ fun () ->
  let r =
    Pool.map ~jobs:4
      (fun _ i ->
        (* nested maps run inline on the worker; results are unaffected *)
        List.fold_left ( + ) 0 (Pool.map ~jobs:4 (fun _ j -> i * j) [ 1; 2; 3 ]))
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "nested results" [ 6; 12; 18; 24 ] r

let test_pool_jobs_clamp () =
  (* with the cap at 1, jobs=8 must degrade to inline and still work *)
  let saved = Pool.get_max_domains () in
  Pool.set_max_domains 1;
  Fun.protect
    ~finally:(fun () -> Pool.set_max_domains saved)
    (fun () ->
      Alcotest.(check (list int))
        "clamped map" [ 2; 4; 6 ]
        (Pool.map ~jobs:8 (fun _ x -> 2 * x) [ 1; 2; 3 ]))

let prop_bernoulli_frequency =
  QCheck.Test.make ~name:"bernoulli frequency tracks p" ~count:20
    QCheck.(float_range 0.1 0.9)
    (fun p ->
      let r = Rng.create 77 in
      let hits = ref 0 in
      let n = 5000 in
      for _ = 1 to n do
        if Rng.bernoulli r p then incr hits
      done;
      Float.abs ((float_of_int !hits /. float_of_int n) -. p) < 0.05)

module Listx = Xpiler_util.Listx

let test_listx_take () =
  Alcotest.(check (list int)) "shorter list" [ 1; 2 ] (Listx.take 5 [ 1; 2 ]);
  Alcotest.(check (list int)) "exact" [ 1; 2; 3 ] (Listx.take 3 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "prefix" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "zero" [] (Listx.take 0 [ 1; 2 ]);
  Alcotest.(check (list int)) "negative" [] (Listx.take (-1) [ 1; 2 ])

let test_listx_top_k () =
  let score = float_of_int in
  Alcotest.(check (list int)) "best first" [ 9; 7; 4 ]
    (Listx.top_k ~k:3 ~score [ 4; 9; 1; 7; 2 ]);
  Alcotest.(check (list int)) "k exceeds length" [ 2; 1 ]
    (Listx.top_k ~k:10 ~score [ 1; 2 ]);
  (* ties keep input order (stable) *)
  Alcotest.(check (list (pair int string))) "stable on ties"
    [ (1, "a"); (1, "b") ]
    (Listx.top_k ~k:2 ~score:(fun (s, _) -> float_of_int s) [ (1, "a"); (0, "z"); (1, "b") ])

module Lru = Xpiler_util.Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let put t k v = ignore (Lru.replace t k v)

let test_lru_evicts_least_recent () =
  let t = Lru.create 2 in
  put t 1 "a";
  put t 2 "b";
  Alcotest.(check (option string)) "hit" (Some "a") (Lru.find t 1);
  (* 2 is now the least recently used *)
  put t 3 "c";
  Alcotest.(check int) "bounded" 2 (Lru.length t);
  Alcotest.(check (option string)) "least recent evicted" None (Lru.find t 2);
  Alcotest.(check (option string)) "recently used kept" (Some "a") (Lru.find t 1);
  put t 3 "c'";
  put t 4 "d";
  Alcotest.(check (option string)) "replace refreshes recency" (Some "c'") (Lru.find t 3);
  Alcotest.(check (option string)) "then the older one goes" None (Lru.find t 1);
  Lru.clear t;
  Alcotest.(check int) "cleared" 0 (Lru.length t)

let bindings t = List.sort compare (Lru.fold (fun k v acc -> (k, v) :: acc) t [])

let test_lru_fold_live_entries () =
  let t = Lru.create 3 in
  List.iter (fun k -> put t k (string_of_int k)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list (pair int string))) "exactly the live entries"
    [ (3, "3"); (4, "4"); (5, "5") ]
    (bindings t);
  Alcotest.(check (list int)) "most recent first" [ 5; 4; 3 ]
    (List.rev (Lru.fold (fun k _ acc -> k :: acc) t []));
  (* folding is a read, not a use: 3 is still the next to go *)
  put t 6 "6";
  Alcotest.(check (list int)) "fold leaves recency alone" [ 4; 5; 6 ] (List.map fst (bindings t))

(* keys equal on their first component only, so a rebind can tell which
   key instance the table kept *)
module Lru_fst = Xpiler_util.Lru.Make (struct
  type t = int * string

  let equal (a, _) (b, _) = Int.equal a b
  let hash (a, _) = Hashtbl.hash a
end)

let test_lru_rebind_at_capacity () =
  let t = Lru.create 2 in
  put t 1 "a";
  put t 2 "b";
  Alcotest.(check bool) "re-binding a present key evicts nothing" false (Lru.replace t 1 "a'");
  Alcotest.(check (list (pair int string))) "both kept" [ (1, "a'"); (2, "b") ] (bindings t);
  let t = Lru_fst.create 1 in
  ignore (Lru_fst.replace t (1, "old") "a");
  ignore (Lru_fst.replace t (1, "new") "b");
  Alcotest.(check (list (pair (pair int string) string)))
    "the new key replaces the old one, as in Hashtbl.replace" [ ((1, "new"), "b") ]
    (Lru_fst.fold (fun k v acc -> (k, v) :: acc) t [])

let test_lru_overflow_evicts_one () =
  let t = Lru.create 4 in
  let evictions = ref 0 in
  for k = 1 to 10 do
    if Lru.replace t k k then incr evictions;
    Alcotest.(check int) "length" (min k 4) (Lru.length t);
    Alcotest.(check int) "one eviction per overflowing insert" (max 0 (k - 4)) !evictions
  done

let () =
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "weighted choice" `Quick test_rng_choose_weighted;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation
        ] );
      ( "vclock",
        [ Alcotest.test_case "charge/merge/reset" `Quick test_vclock;
          Alcotest.test_case "merge" `Quick test_vclock_merge;
          Alcotest.test_case "reset" `Quick test_vclock_reset;
          Alcotest.test_case "breakdown omits zero stages" `Quick
            test_vclock_breakdown_omits_zero;
          Alcotest.test_case "observer" `Quick test_vclock_observer;
          Alcotest.test_case "negative rejected" `Quick test_vclock_negative
        ] );
      ( "pool",
        [ Alcotest.test_case "input-order results" `Quick test_pool_order;
          Alcotest.test_case "rng schedule-independent" `Quick
            test_pool_rng_schedule_independent;
          Alcotest.test_case "deterministic replay" `Quick test_pool_replay_order;
          Alcotest.test_case "first error by index" `Quick test_pool_first_error_by_index;
          Alcotest.test_case "nested maps inline" `Quick test_pool_nested_inline;
          Alcotest.test_case "domain clamp" `Quick test_pool_jobs_clamp
        ] );
      ( "listx",
        [ Alcotest.test_case "take" `Quick test_listx_take;
          Alcotest.test_case "top_k" `Quick test_listx_top_k
        ] );
      ( "lru",
        [ Alcotest.test_case "evicts least recent" `Quick test_lru_evicts_least_recent;
          Alcotest.test_case "fold sees live entries" `Quick test_lru_fold_live_entries;
          Alcotest.test_case "rebind at capacity" `Quick test_lru_rebind_at_capacity;
          Alcotest.test_case "overflow evicts one" `Quick test_lru_overflow_evicts_one
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_bernoulli_frequency ])
    ]
