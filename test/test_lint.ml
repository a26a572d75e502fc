(* zeroconf-lint rule engine: one seeded violation per rule family,
   asserted down to the exact rule id and line, plus the allowlist
   machinery.  The live tree itself is linted by the root `dune` rule
   (aliases @lint and @runtest), so a regression in either the rules or
   the code shows up in the tier-1 gate. *)

open Lint_core

let hits path source =
  List.map
    (fun (f : Finding.t) -> (f.rule, f.line, f.ident))
    (Rules.lint_source ~path source)

let check_hits name ~path ~source expected =
  Alcotest.(check (list (triple string int string)))
    name expected (hits path source)

(* -- R1: float hygiene --------------------------------------------- *)

let r1_seeded () =
  check_hits "raw log, division and pow are flagged, line-exact"
    ~path:"lib/core/cost.ml"
    ~source:"let f x = log x\nlet g a b = a /. b\nlet h x n = x ** n\n"
    [ ("R1", 1, "log"); ("R1", 2, "/."); ("R1", 3, "**") ];
  check_hits "Float.log and exp count too" ~path:"lib/core/kernel.ml"
    ~source:"let f x = Float.log x +. exp x\n"
    [ ("R1", 1, "Float.log"); ("R1", 1, "exp") ]

let r1_scoped () =
  check_hits "sanctioned spellings are clean" ~path:"lib/core/cost.ml"
    ~source:
      "module SF = Numerics.Safe_float\n\
       let f x = SF.div (SF.log x) (SF.exp x)\n"
    [];
  check_hits "non-probability modules are out of R1 scope"
    ~path:"lib/numerics/grid.ml" ~source:"let f x = log x /. exp x\n" []

let r1_engine_pipeline () =
  (* the engine's plan/executor/cache joined the probability path when
     the pipeline split landed; raw primitives there must be flagged *)
  List.iter
    (fun path ->
      check_hits
        (path ^ " is in R1 scope")
        ~path ~source:"let f x = exp x /. 2.\n"
        [ ("R1", 1, "exp"); ("R1", 1, "/.") ])
    [ "lib/engine/plan.ml"; "lib/engine/executor.ml"; "lib/engine/cache.ml" ];
  (* backends.ml stays out of scope: it only forwards values computed
     inside lib/core *)
  check_hits "lib/engine/backends.ml is out of R1 scope"
    ~path:"lib/engine/backends.ml" ~source:"let f x = exp x\n" []

(* -- R2: determinism ----------------------------------------------- *)

let r2_seeded () =
  check_hits "global Random state and wall clocks are flagged"
    ~path:"lib/dist/families.ml"
    ~source:
      "let () = Random.self_init ()\n\
       let x () = Random.float 1.\n\
       let t () = Unix.gettimeofday ()\n"
    [ ("R2", 1, "Random.self_init");
      ("R2", 2, "Random.float");
      ("R2", 3, "Unix.gettimeofday") ]

let r2_monotonic () =
  check_hits "a monotonic clock read outside bench/ is flagged too"
    ~path:"lib/engine/executor.ml"
    ~source:"let t () = Monotonic_clock.now ()\n"
    [ ("R2", 1, "Monotonic_clock.now") ];
  check_hits "bench may read the monotonic clock" ~path:"bench/main.ml"
    ~source:"let t () = Monotonic_clock.now ()\n" []

let r2_scoped () =
  check_hits "bench may read the wall clock" ~path:"bench/main.ml"
    ~source:"let t () = Unix.gettimeofday ()\n" [];
  check_hits "Numerics.Rng is the sanctioned RNG" ~path:"lib/netsim/multi.ml"
    ~source:"let draw rng = Numerics.Rng.float rng\n" []

let r2_environment () =
  check_hits "environment reads inside lib/ are flagged"
    ~path:"lib/exec/pool.ml"
    ~source:
      "let a = Sys.getenv \"A\"\n\
       let b = Sys.getenv_opt \"B\"\n\
       let c = Unix.getenv \"C\"\n\
       let d = Unix.environment ()\n"
    [ ("R2", 1, "Sys.getenv");
      ("R2", 2, "Sys.getenv_opt");
      ("R2", 3, "Unix.getenv");
      ("R2", 4, "Unix.environment") ];
  check_hits "executables may read the environment" ~path:"bin/cli_common.ml"
    ~source:"let j = Sys.getenv_opt \"ZEROCONF_JOBS\"\n" [];
  check_hits "a library setting is no environment read"
    ~path:"lib/exec/parallel.ml" ~source:"let j = Pool.jobs ()\n" []

let r2_cache_timestamps () =
  (* a clock read in the cache trips the wall-clock rule; a waiver for
     it would live in allow.sexp and cover that one file only *)
  check_hits "cache timestamps are caught by R2"
    ~path:"lib/engine/cache.ml"
    ~source:"let stamp () = Unix.gettimeofday ()\n"
    [ ("R2", 1, "Unix.gettimeofday") ];
  let entries = Allowlist.of_string
      "((rule R2) (file lib/engine/cache.ml) (ident Unix.gettimeofday)\n\
      \ (why \"insertion timestamps, observability only\"))\n"
  in
  Alcotest.(check bool)
    "the waiver permits exactly that finding" true
    (Allowlist.permits entries
       (Finding.v ~rule:"R2" ~file:"lib/engine/cache.ml" ~line:1 ~col:0
          ~ident:"Unix.gettimeofday" ~message:"" ~hint:""));
  Alcotest.(check bool)
    "the waiver does not leak to other engine files" false
    (Allowlist.permits entries
       (Finding.v ~rule:"R2" ~file:"lib/engine/executor.ml" ~line:1 ~col:0
          ~ident:"Unix.gettimeofday" ~message:"" ~hint:""))

(* -- R3: concurrency containment ----------------------------------- *)

let r3_seeded () =
  check_hits "Domain/Atomic/Mutex leak outside lib/exec"
    ~path:"lib/netsim/engine.ml"
    ~source:
      "let d () = Domain.spawn (fun () -> ())\n\
       let a = Atomic.make 0\n\
       let m = Mutex.create ()\n"
    [ ("R3", 1, "Domain.spawn");
      ("R3", 2, "Atomic.make");
      ("R3", 3, "Mutex.create") ]

let r3_scoped () =
  check_hits "lib/exec is the sanctioned home" ~path:"lib/exec/pool.ml"
    ~source:"let d () = Domain.spawn (fun () -> ())\n" []

(* -- R4: I/O containment ------------------------------------------- *)

let r4_seeded () =
  check_hits "console writes inside lib are flagged"
    ~path:"lib/engine/report.ml"
    ~source:
      "let () = print_endline \"x\"\n\
       let () = Printf.printf \"y\"\n\
       let oc = stderr\n"
    [ ("R4", 1, "print_endline");
      ("R4", 2, "Printf.printf");
      ("R4", 3, "stderr") ]

let r4_scoped () =
  check_hits "lib/output is the sanctioned sink" ~path:"lib/output/emit.ml"
    ~source:"let () = print_string \"x\"\n" [];
  check_hits "binaries talk to the console freely" ~path:"bin/zeroconf_cli.ml"
    ~source:"let () = print_endline \"x\"\n" []

(* -- R5: interface discipline -------------------------------------- *)

let r5_obj () =
  check_hits "Obj.magic is never sanctioned" ~path:"lib/dtmc/chain.ml"
    ~source:"let f x = Obj.magic x\n"
    [ ("R5", 1, "Obj.magic") ]

let r5_missing_mli () =
  let fs =
    Rules.missing_mli_findings
      [ "lib/core/cost.ml"; "lib/core/cost.mli"; "lib/core/orphan.ml";
        "bin/zeroconf_cli.ml" ]
  in
  Alcotest.(check (list (pair string string)))
    "only the interface-less lib module is flagged"
    [ ("R5", "lib/core/orphan.ml") ]
    (List.map (fun (f : Finding.t) -> (f.rule, f.file)) fs)

(* -- R6: every lib module has a product caller ---------------------- *)

let wrappers = [ ("lib/numerics", "Numerics"); ("lib/core", "Zeroconf") ]

let unreached sources =
  List.map
    (fun (f : Finding.t) -> (f.rule, f.file, f.ident))
    (Rules.unreached_findings ~wrappers sources)

let r6_unreached () =
  Alcotest.(check (list (triple string string string)))
    "a lib module no bin/ source reaches is flagged, its .mli is not"
    [ ("R6", "lib/numerics/orphan.ml", "Numerics.Orphan") ]
    (unreached
       [ ("bin/main.ml", "let g = Numerics.Grid.linspace 0. 1. 3\n");
         ("lib/numerics/grid.ml", "let linspace a b n = [| a; b |]\n");
         ("lib/numerics/orphan.ml", "let x = 1\n");
         ("lib/numerics/orphan.mli", "val x : int\n") ]);
  Alcotest.(check (list (triple string string string)))
    "bench/ is no root" [ ("R6", "lib/numerics/grid.ml", "Numerics.Grid") ]
    (unreached
       [ ("bin/main.ml", "let () = ()\n");
         ("bench/main.ml", "let g = Numerics.Grid.linspace\n");
         ("lib/numerics/grid.ml", "let linspace = ()\n") ]);
  Alcotest.(check (list (triple string string string)))
    "without a bin/ source nothing is flagged" []
    (unreached [ ("lib/numerics/orphan.ml", "let x = 1\n") ])

let r6_reached () =
  Alcotest.(check (list (triple string string string)))
    "an alias, an open, a bare same-library name and a package type all \
     reach"
    []
    (unreached
       [ ("bin/main.ml",
          "module M = Numerics.Stats\n\
           open Zeroconf\n\
           let c = Cost.mean\n");
         ("lib/numerics/stats.ml", "let create = Grid.create\n");
         ("lib/numerics/grid.ml", "let create () = [||]\n");
         ("lib/core/cost.ml",
          "let mean (p : Params.t) = p\n\
           let run (module B : Backend.S) = B.name\n");
         ("lib/core/params.ml", "type t = float\n");
         ("lib/core/backend.ml", "module type S = sig val name : string end\n")
       ])

(* -- R6 for values: every exported val is named from another module -- *)

let unused sources =
  List.map
    (fun (f : Finding.t) -> (f.rule, f.file, f.ident))
    (Rules.unused_value_findings ~wrappers sources)

let r6_value_unused () =
  Alcotest.(check (list (triple string string string)))
    "a val nothing names and a val named only from its own .ml are flagged"
    [ ("R6", "lib/numerics/grid.mli", "Numerics.Grid.orphan");
      ("R6", "lib/numerics/grid.mli", "Numerics.Grid.helper") ]
    (unused
       [ ("bin/main.ml", "let g = Numerics.Grid.linspace\n");
         ("lib/numerics/grid.ml",
          "let helper x = x\nlet linspace a = helper a\nlet orphan = 1\n\
           let again = Grid.helper\n");
         ("lib/numerics/grid.mli",
          "val linspace : 'a -> 'a\nval orphan : int\nval helper : 'a -> 'a\n")
       ])

let r6_value_test_only () =
  Alcotest.(check (list (triple string string string)))
    "a val that only a test/ source names is flagged, though that source \
     is passed in"
    [ ("R6", "lib/numerics/grid.mli", "Numerics.Grid.oracle") ]
    (unused
       [ ("bin/main.ml", "let g = Numerics.Grid.linspace\n");
         ("test/test_grid.ml",
          "let o = Numerics.Grid.oracle\n\
           open Numerics.Grid\nlet p = oracle\n\
           module G = Numerics.Grid\nlet q = G.oracle\n");
         ("lib/numerics/grid.ml", "let linspace = 1 let oracle = 2\n");
         ("lib/numerics/grid.mli", "val linspace : int\nval oracle : int\n")
       ])

let r6_value_named () =
  Alcotest.(check (list (triple string string string)))
    "a W.M.v path, an own-library M.v, an open, a module alias and a \
     module-type member all name their value"
    []
    (unused
       [ ("bin/main.ml", "let g = Numerics.Grid.linspace\n");
         ("lib/numerics/stats.ml",
          "let q = Grid.chunks\n\
           let s (module B : Backend.S) = B.name\n");
         ("perfbench/main.ml",
          "open Numerics.Grid\nlet m = map_sweep\n\
           module R = Numerics.Rng\nlet d = R.int\n");
         ("lib/numerics/grid.ml", "let linspace = 1 let chunks = 2 let map_sweep = 3\n");
         ("lib/numerics/grid.mli",
          "val linspace : int\nval chunks : int\nval map_sweep : int\n");
         ("lib/numerics/rng.ml", "let int = 4\n");
         ("lib/numerics/rng.mli", "val int : int\n");
         ("lib/numerics/backend.ml", "module type S = sig val name : string end\n");
         ("lib/numerics/backend.mli", "module type S = sig val name : string end\n")
       ])

(* The same naming source, read once from examples/ and once from
   perfbench/ *)
let example_only_sources root =
  [ ("bin/main.ml", "let g = Numerics.Grid.linspace\n");
    ( root ^ "/main.ml",
      "let o = Numerics.Grid.oracle\n\
       open Numerics.Grid\nlet p = oracle\n\
       module G = Numerics.Grid\nlet q = G.oracle\n" );
    ("lib/numerics/grid.ml", "let linspace = 1 let oracle = 2\n");
    ("lib/numerics/grid.mli", "val linspace : int\nval oracle : int\n") ]

let r6_value_example_only () =
  Alcotest.(check (list (triple string string string)))
    "a val that only an examples/ source names is flagged"
    [ ("R6", "lib/numerics/grid.mli", "Numerics.Grid.oracle") ]
    (unused (example_only_sources "examples"));
  Alcotest.(check (list (triple string string string)))
    "the same val named from perfbench/ is not" []
    (unused (example_only_sources "perfbench"))

(* -- R9: every optional argument of a lib val is passed somewhere ---- *)

let unpassed sources =
  List.map
    (fun (f : Finding.t) -> (f.rule, f.file, f.ident))
    (Rules.unpassed_option_findings ~wrappers sources)

let grid_mli =
  ( "lib/numerics/grid.mli",
    "val linspace : ?pad:int -> ?step:int -> ?unused:int -> int -> int\n\
     val chunks : ?size:int -> unit -> int\n\
     val map_sweep : ?f:int -> unit -> int\n\
     val scan : ?dir:int -> unit -> int\n" )

let r9_unpassed () =
  Alcotest.(check (list (triple string string string)))
    "an option passed only from its own module, only from a test, or not \
     at all is flagged; one another module passes is not"
    [ ("R9", "lib/numerics/grid.mli", "Numerics.Grid.linspace?pad");
      ("R9", "lib/numerics/grid.mli", "Numerics.Grid.linspace?step");
      ("R9", "lib/numerics/grid.mli", "Numerics.Grid.linspace?unused") ]
    (unpassed
       [ ("bin/main.ml",
          "let g = Numerics.Grid.linspace 3\n\
           let c = Numerics.Grid.chunks ~size:2 ()\n\
           let m = Numerics.Grid.map_sweep ~f:1 ()\n\
           let s = Numerics.Grid.scan ~dir:1 ()\n\
           let d = (Numerics.Grid.chunks (), Numerics.Grid.map_sweep ())\n\
           let t = Numerics.Grid.scan ()\n");
         ("lib/numerics/grid.ml",
          "let linspace ?(pad = 0) ?(step = 1) ?(unused = 0) n = n + pad\n\
           let again = linspace ~pad:1 2\nlet twice = Grid.linspace ~pad:2 3\n");
         grid_mli;
         ("test/test_grid.ml",
          "let s = Numerics.Grid.linspace ~step:2 4\n\
           open Numerics.Grid\nlet t = linspace ~step:3 5\n\
           module G = Numerics.Grid\nlet u = G.linspace ?step:None 6\n") ])

let r9_passed () =
  Alcotest.(check (list (triple string string string)))
    "a qualified call, a module alias, an open and a ?x pass-through each \
     pass their option"
    []
    (unpassed
       [ ("bin/main.ml", "let g = Numerics.Grid.linspace ~pad:1 ~step:2 3\n");
         ("perfbench/main.ml",
          "module G = Numerics.Grid\nlet c = G.chunks ~size:2 ()\n\
           let u = G.linspace ~unused:0 1\nlet d = G.chunks ()\n");
         ("bench/main.ml",
          "open Numerics.Grid\nlet m = map_sweep ~f:1 ()\nlet n = map_sweep ()\n");
         ("lib/numerics/stats.ml", "let s ?dir () = Grid.scan ?dir ()\n");
         ("lib/numerics/grid.ml",
          "let linspace ?pad ?step ?unused n = n\nlet chunks ?size () = 0\n\
           let map_sweep ?f () = 0\nlet scan ?dir () = 0\n");
         grid_mli ])

let r9_example_only () =
  let sources root =
    [ ("bin/main.ml",
       "let g = Numerics.Grid.linspace ~pad:1 ~step:2 ~unused:3 4\n\
        let m = Numerics.Grid.map_sweep ~f:1 ()\n\
        let s = Numerics.Grid.scan ~dir:1 ()\n\
        let h = Numerics.Grid.linspace 5\n\
        let n = (Numerics.Grid.map_sweep (), Numerics.Grid.scan ())\n");
      ( root ^ "/main.ml",
        "let c = Numerics.Grid.chunks ~size:2 ()\n\
         module G = Numerics.Grid\nlet d = G.chunks ?size:None ()\n" );
      ("lib/numerics/grid.ml",
       "let linspace ?pad ?step ?unused n = n\nlet chunks ?size () = 0\n\
        let map_sweep ?f () = 0\nlet scan ?dir () = 0\n");
      grid_mli ]
  in
  Alcotest.(check (list (triple string string string)))
    "an option that only an examples/ source passes is flagged"
    [ ("R9", "lib/numerics/grid.mli", "Numerics.Grid.chunks?size") ]
    (unpassed (sources "examples"));
  Alcotest.(check (list (triple string string string)))
    "the same option passed from perfbench/ is not" []
    (unpassed (sources "perfbench"))

(* R9's second half: an option that every product call passes as [~x]
   is a required argument.  [chunks] and [map_sweep] are called from
   bin/ and perfbench/, [scan] from bin/ and lib/ *)
let r9_defaults_sources ?(extra = []) bin =
  [ ("bin/main.ml", bin);
    ("perfbench/main.ml",
     "module G = Numerics.Grid\nlet c = G.chunks ~size:2 ()\n\
      let m = G.map_sweep ~f:1 ()\nlet g = G.linspace ~pad:1 ~step:2 ~unused:3 4\n");
    ("lib/numerics/stats.ml", "let s () = Grid.scan ~dir:1 ()\n");
    ("lib/numerics/grid.ml",
     "let linspace ?pad ?step ?unused n = n\nlet chunks ?size () = 0\n\
      let map_sweep ?f () = 0\nlet scan ?dir () = 0\n\
      let own = (chunks (), map_sweep (), scan ())\n");
    grid_mli ]
  @ extra

let every_call_passes =
  "let c = Numerics.Grid.chunks ~size:4 ()\n\
   let m = Numerics.Grid.map_sweep ~f:2 ()\n\
   let s = Numerics.Grid.scan ~dir:2 ()\n\
   let g = Numerics.Grid.linspace ~pad:0 ~step:1 ~unused:0 5\n"

let r9_every_call_passes () =
  let required =
    [ ("R9", "lib/numerics/grid.mli", "Numerics.Grid.linspace?pad");
      ("R9", "lib/numerics/grid.mli", "Numerics.Grid.linspace?step");
      ("R9", "lib/numerics/grid.mli", "Numerics.Grid.linspace?unused");
      ("R9", "lib/numerics/grid.mli", "Numerics.Grid.chunks?size");
      ("R9", "lib/numerics/grid.mli", "Numerics.Grid.map_sweep?f");
      ("R9", "lib/numerics/grid.mli", "Numerics.Grid.scan?dir") ]
  in
  Alcotest.(check (list (triple string string string)))
    "an option every call outside its module passes as ~x is flagged, \
     though its own module omits it"
    required
    (unpassed (r9_defaults_sources every_call_passes));
  Alcotest.(check (list (triple string string string)))
    "a test or an example that omits it, forwards it or names the val \
     keeps nothing optional"
    required
    (unpassed
       (r9_defaults_sources every_call_passes
          ~extra:
            (List.map
               (fun root ->
                 ( root ^ "/main.ml",
                   "let c = Numerics.Grid.chunks ()\n\
                    let m ?f () = Numerics.Grid.map_sweep ?f ()\n\
                    let s = List.map Numerics.Grid.scan [ () ]\n\
                    let g = Numerics.Grid.linspace 5\n" ))
               [ "test"; "examples" ])))

let r9_some_call_defaults () =
  Alcotest.(check (list (triple string string string)))
    "a product call that omits x, forwards ?x or names the val unapplied \
     takes the default"
    []
    (unpassed
       (r9_defaults_sources
          "let c = Numerics.Grid.chunks ()\n\
           let m ?f () = Numerics.Grid.map_sweep ?f ()\n\
           open Numerics.Grid\nlet s = List.map scan [ () ]\n\
           let g = linspace 5\n"))

let r9_stale_waiver () =
  let waiver =
    Allowlist.of_string
      "((rule R9) (file lib/numerics/grid.mli) (ident Numerics.Grid.chunks?size)\n\
      \ (why \"a test hook\"))\n"
  in
  let findings =
    Rules.unpassed_option_findings ~wrappers
      (r9_defaults_sources "let c = Numerics.Grid.chunks ()\n\
                            let m = Numerics.Grid.map_sweep ()\n\
                            let s = Numerics.Grid.scan ()\n\
                            let g = Numerics.Grid.linspace 5\n")
  in
  let v = Allowlist.verdict waiver findings in
  Alcotest.(check int) "no finding left to waive" 0 (List.length findings);
  Alcotest.(check int) "the waiver is stale" 1 (List.length v.Allowlist.stale);
  Alcotest.(check int) "a stale R9 waiver fails the gate" 1
    (Allowlist.exit_code v)

(* -- R10: exact allocation counts in bench/ -------------------------- *)

let r10_quick_stat () =
  check_hits "Gc.quick_stat is flagged in bench/" ~path:"bench/main.ml"
    ~source:"let s = Gc.quick_stat ()\nlet w = s.Gc.minor_words\n"
    [ ("R10", 1, "Gc.quick_stat") ];
  check_hits "the exact counters are clean" ~path:"bench/main.ml"
    ~source:"let m = Gc.minor_words ()\nlet _, p, j = Gc.counters ()\n" []

(* -- R8: bin/ reaches Eqs. 3 and 4 only through the engine ----------- *)

let closed_forms sources =
  List.map
    (fun (f : Finding.t) -> (f.rule, f.file, f.ident))
    (Rules.closed_form_findings ~wrappers sources)

let r8_flagged () =
  Alcotest.(check (list (triple string string string)))
    "a path, an open, a module alias and a local open each name a closed \
     form, once per module and file"
    [ ("R8", "bin/a.ml", "Zeroconf.Cost");
      ("R8", "bin/b.ml", "Zeroconf.Reliability");
      ("R8", "bin/c.ml", "Zeroconf.Kernel");
      ("R8", "bin/d.ml", "Zeroconf.Cost") ]
    (closed_forms
       [ ("bin/a.ml", "let c = Zeroconf.Cost.mean
let d = Zeroconf.Cost.mean
");
         ("bin/b.ml", "open Zeroconf
let e = Reliability.error_probability
");
         ("bin/c.ml", "module K = Zeroconf.Kernel
let k = K.create
");
         ("bin/d.ml", "let c p = let open Zeroconf in Cost.mean p ~n:4 ~r:2.
")
       ])

let r8_exempt () =
  let names =
    "let c = Zeroconf.Cost.mean
     open Zeroconf
let e = Reliability.error_probability
     module K = Zeroconf.Kernel
"
  in
  Alcotest.(check (list (triple string string string)))
    "lib/ and examples/ may name the closed forms, bin/ the other modules"
    []
    (closed_forms
       [ ("lib/core/optimize.ml", names);
         ("examples/quickstart.ml", names);
         ("bin/main.ml",
          "let d = Zeroconf.Drm.build
let l = Zeroconf.Latency.periods
           open Zeroconf
let o = Optimize.optimal_n
") ])

(* -- E0: parse failures are findings, not crashes ------------------ *)

let e0_parse_error () =
  match hits "lib/core/cost.ml" "let let = in" with
  | [ ("E0", _, "<parse>") ] -> ()
  | other ->
      Alcotest.failf "expected a single E0 finding, got %d" (List.length other)

(* -- allowlist ----------------------------------------------------- *)

let allow_entries =
  Allowlist.of_string
    "((rule R3) (file lib/core/kernel.ml) (ident Domain.DLS)\n\
    \ (why \"per-domain memo\"))\n"

let allowlist_permits () =
  let finding ident =
    Finding.v ~rule:"R3" ~file:"lib/core/kernel.ml" ~line:46 ~col:4 ~ident
      ~message:"" ~hint:""
  in
  Alcotest.(check bool)
    "exact ident is waived" true
    (Allowlist.permits allow_entries (finding "Domain.DLS"));
  Alcotest.(check bool)
    "deeper path under the ident is waived" true
    (Allowlist.permits allow_entries (finding "Domain.DLS.get"));
  Alcotest.(check bool)
    "a sibling module is not waived" false
    (Allowlist.permits allow_entries (finding "Domain.spawn"));
  Alcotest.(check bool)
    "another file is not waived" false
    (Allowlist.permits allow_entries
       (Finding.v ~rule:"R3" ~file:"lib/core/probes.ml" ~line:1 ~col:0
          ~ident:"Domain.DLS" ~message:"" ~hint:""))

let allowlist_requires_why () =
  Alcotest.check_raises "an entry without a justification is malformed"
    (Allowlist.Malformed "allow entry missing (why ...)") (fun () ->
      ignore
        (Allowlist.of_string
           "((rule R1) (file lib/core/cost.ml) (ident log))"))

let allowlist_stale () =
  let live =
    [ Finding.v ~rule:"R3" ~file:"lib/core/kernel.ml" ~line:46 ~col:4
        ~ident:"Domain.DLS.get" ~message:"" ~hint:"" ]
  in
  Alcotest.(check int)
    "a matching entry is not stale" 0
    (List.length (Allowlist.unused allow_entries live));
  Alcotest.(check int)
    "an entry matching nothing is reported stale" 1
    (List.length (Allowlist.unused allow_entries []))

let stale_entries_fail_the_gate () =
  let live =
    [ Finding.v ~rule:"R3" ~file:"lib/core/kernel.ml" ~line:46 ~col:4
        ~ident:"Domain.DLS.get" ~message:"" ~hint:"" ]
  in
  let clean = Allowlist.verdict allow_entries live in
  Alcotest.(check int) "the finding is waived" 1 clean.Allowlist.waived;
  Alcotest.(check int) "every finding waived, no stale entry: exit 0" 0
    (Allowlist.exit_code clean);
  let stale = Allowlist.verdict allow_entries [] in
  Alcotest.(check int) "the unmatched entry is reported" 1
    (List.length stale.Allowlist.stale);
  Alcotest.(check int) "a stale entry alone: exit 1" 1
    (Allowlist.exit_code stale);
  let fresh = Allowlist.verdict [] live in
  Alcotest.(check int) "an unwaived finding: exit 1" 1
    (Allowlist.exit_code fresh)

(* -- the shipped allowlist itself stays well-formed ---------------- *)

let shipped_allowlist () =
  (* [Rules] scoping is path-based, so entries must use repo-relative
     paths; every entry must carry a justification (enforced by the
     loader).  The file lives next to the lint, two directories up from
     the test's cwd inside _build (test/dune declares it a dependency);
     a missing file is a failure, not a pass. *)
  let path = "../tools/lint/allow.sexp" in
  if not (Sys.file_exists path) then Alcotest.failf "%s is missing" path;
  let entries = Allowlist.load path in
  Alcotest.(check bool) "has entries" true (List.length entries > 0)

let () =
  Alcotest.run "lint"
    [ ( "rules",
        [ Alcotest.test_case "R1 seeded" `Quick r1_seeded;
          Alcotest.test_case "R1 scoping" `Quick r1_scoped;
          Alcotest.test_case "R1 engine pipeline scope" `Quick
            r1_engine_pipeline;
          Alcotest.test_case "R2 seeded" `Quick r2_seeded;
          Alcotest.test_case "R2 scoping" `Quick r2_scoped;
          Alcotest.test_case "R2 monotonic clock" `Quick r2_monotonic;
          Alcotest.test_case "R2 environment" `Quick r2_environment;
          Alcotest.test_case "R2 cache timestamps" `Quick r2_cache_timestamps;
          Alcotest.test_case "R3 seeded" `Quick r3_seeded;
          Alcotest.test_case "R3 scoping" `Quick r3_scoped;
          Alcotest.test_case "R4 seeded" `Quick r4_seeded;
          Alcotest.test_case "R4 scoping" `Quick r4_scoped;
          Alcotest.test_case "R5 Obj" `Quick r5_obj;
          Alcotest.test_case "R5 missing mli" `Quick r5_missing_mli;
          Alcotest.test_case "R6 unreached module" `Quick r6_unreached;
          Alcotest.test_case "R6 alias, open, same-library name, package" `Quick
            r6_reached;
          Alcotest.test_case "R6 unused value" `Quick r6_value_unused;
          Alcotest.test_case "R6 value named only by a test" `Quick
            r6_value_test_only;
          Alcotest.test_case "R6 value named by path, open, alias, module type"
            `Quick r6_value_named;
          Alcotest.test_case "R6 value named only by an example" `Quick
            r6_value_example_only;
          Alcotest.test_case "R9 option no other module passes" `Quick
            r9_unpassed;
          Alcotest.test_case "R9 option passed by path, alias, open, ?x" `Quick
            r9_passed;
          Alcotest.test_case "R9 option passed only by an example" `Quick
            r9_example_only;
          Alcotest.test_case "R9 option every product call passes" `Quick
            r9_every_call_passes;
          Alcotest.test_case "R9 option a product call defaults" `Quick
            r9_some_call_defaults;
          Alcotest.test_case "R9 stale waiver" `Quick r9_stale_waiver;
          Alcotest.test_case "R10 Gc.quick_stat in bench" `Quick r10_quick_stat;
          Alcotest.test_case "R8 closed forms named in bin/" `Quick r8_flagged;
          Alcotest.test_case "R8 lib/, examples/ and other modules" `Quick
            r8_exempt;
          Alcotest.test_case "E0 parse error" `Quick e0_parse_error ] );
      ( "allowlist",
        [ Alcotest.test_case "permits" `Quick allowlist_permits;
          Alcotest.test_case "why is mandatory" `Quick allowlist_requires_why;
          Alcotest.test_case "stale detection" `Quick allowlist_stale;
          Alcotest.test_case "stale entries fail the gate" `Quick
            stale_entries_fail_the_gate;
          Alcotest.test_case "shipped allow.sexp" `Quick shipped_allowlist ] )
    ]
