(* The verifier benchmark: runs one named workload with a seed, checks
   every verdict against its known answer, and prints the end-to-end
   metrics (or, with --trace 1, the per-layer metrics) as one JSON line.
   See README.md in this directory. *)

module P = Liquid_driver.Pipeline
module S = Liquid_engine.Scheduler
module Protocol = Liquid_server.Protocol
module Client = Liquid_server.Client
module Server = Liquid_server.Server
module Solver = Liquid_smt.Solver
module C = Corpus

let now = Unix.gettimeofday

(* -- Statistics -------------------------------------------------------- *)

(* The q-quantile, interpolating linearly between the two nearest order
   statistics (Python's statistics.quantiles with method='inclusive'). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun a x -> a +. log (Float.max x 1e-9)) 0.0 xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Group [(key, v)] pairs by key, keys in first-seen order. *)
let group kvs =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some l -> Hashtbl.replace tbl k (v :: l)
      | None ->
          order := k :: !order;
          Hashtbl.replace tbl k [ v ])
    kvs;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

(* -- Spans ----------------------------------------------------------------- *)

type span = {
  sp_name : string;
  sp_t0 : float;
  sp_t1 : float;
  sp_pid : int;
  sp_req : int; (* request id, -1 outside any request *)
  sp_parent : string;
}

let spans : span list ref = ref []

let record ?(parent = "") ~req name t0 t1 =
  spans :=
    {
      sp_name = name;
      sp_t0 = t0;
      sp_t1 = t1;
      sp_pid = Unix.getpid ();
      sp_req = req;
      sp_parent = parent;
    }
    :: !spans

(* Run [f], recording a span around it when [on]. *)
let timed ~on ?parent ~req name f =
  if not on then f ()
  else
    let t0 = now () in
    let r = f () in
    record ?parent ~req name t0 (now ());
    r

(* Chrome trace-event JSON, as Perfetto and chrome://tracing read it. *)
let write_trace path (all : span list) =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"req\":%d,\"parent\":%S}}\n"
        (if i = 0 then "" else ",")
        s.sp_name (s.sp_t0 *. 1e6)
        ((s.sp_t1 -. s.sp_t0) *. 1e6)
        s.sp_pid s.sp_pid s.sp_req s.sp_parent)
    (List.sort (fun a b -> compare a.sp_t0 b.sp_t0) all);
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

(* -- Verifying one program in the current process ----------------------- *)

(* Peak resident set of this process, in kB (0 where /proc is absent). *)
let peak_rss_kb pid =
  try
    let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
    let rec find () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
      | _ -> find ()
      | exception End_of_file -> 0
    in
    let kb = find () in
    close_in ic;
    kb
  with Sys_error _ | Scanf.Scan_failure _ | Failure _ -> 0

type result = {
  verdict : string; (* SAFE | UNSAFE | SAFE_MODULO n | E_SOURCE | E_CRASH *)
  render : string; (* the printed report; "" for rejections *)
  elapsed : float; (* the pipeline's own phase total, seconds *)
  counts : (string * float) list; (* traced requests only *)
  w_spans : span list; (* traced requests only *)
  rss_kb : int;
  whole_hit : bool; (* served whole from the persistent cache *)
}

let options_of ?cache_dir (p : C.program) =
  {
    P.default with
    P.quals =
      (if p.use_defaults then Liquid_infer.Qualifier.defaults else [])
      @ Liquid_infer.Qualifier.parse_string p.qual_text;
    mine = p.mine;
    explain = p.explain;
    gradual = p.gradual;
    cache_dir;
  }

let verdict_of (r : P.report) =
  if not r.P.safe then "UNSAFE"
  else
    match r.P.residuals with
    | [] -> "SAFE"
    | rs -> Printf.sprintf "SAFE_MODULO %d" (List.length rs)

let render (r : P.report) = Fmt.str "%a" P.pp_report r

(* Per-layer counters of one finished verification, read from the
   report and the layers' public counters.  The worker verified nothing
   else, so the global counters belong to this request alone. *)
let counts_of (r : P.report) ~store =
  let s = r.P.stats in
  (* A whole-run cache hit carries the stats of the run that stored it;
     none of that work happened here. *)
  let live = if s.P.n_pcache_hits = 1 then 0.0 else 1.0 in
  let ph name = try live *. 1000.0 *. List.assoc name s.P.phases with Not_found -> 0.0 in
  let i = float_of_int in
  let ri n = live *. i n in
  let smt_ms = 1000.0 *. Solver.stats.Solver.time in
  let lia_ms = 1000.0 *. !Liquid_smt.Lia.time_in in
  let hints =
    List.length
      (List.filter
         (fun (e : Liquid_explain.Explain.explanation) ->
           e.Liquid_explain.Explain.ex_repair <> None)
         r.P.explanations)
  in
  let st =
    match store with
    | Some dir -> Some (Liquid_cache.Store.stats (Liquid_cache.Store.open_store ~dir ()))
    | None -> None
  in
  let sc f = match st with Some st -> i (f st) | None -> 0.0 in
  [
    ("lang.parse_ms", ph "parse");
    ("anf.normalize_ms", ph "anf");
    ("typing.infer_ms", ph "hm");
    ("liquid.congen_ms", ph "congen");
    ("liquid.kvars", ri s.P.n_kvars);
    ("liquid.subs", ri s.P.n_sub_constraints);
    ("liquid.candidates", ri s.P.n_initial_candidates);
    ("liquid.partitions", ri s.P.n_partitions);
    ("liquid.critical_path", ri s.P.critical_path);
    ( "liquid.fixpoint_self_ms",
      Float.max 0.0 (ph "solve" +. ph "concrete_check" -. smt_ms) );
    ("liquid.prune_ms", live *. 1000.0 *. s.P.prune_time);
    ("liquid.reinstate_ms", live *. 1000.0 *. s.P.reinstate_time);
    ("liquid.implication_checks", ri s.P.n_implication_checks);
    ("liquid.quals_pruned", ri s.P.n_quals_pruned);
    ("liquid.reinstated", ri s.P.n_reinstated);
    ("smt.time_ms", smt_ms);
    ("smt.self_ms", Float.max 0.0 (smt_ms -. lia_ms));
    ("smt.queries", i Solver.stats.Solver.queries);
    ("smt.sat_checks", i Solver.stats.Solver.sat_checks);
    ("smt.cache_hits", i Solver.stats.Solver.cache_hits);
    ("smt.work_units", i !Solver.work_total);
    ("smt.dpll.models", i !Liquid_smt.Dpll.models_total);
    ("smt.theory.calls", i !Liquid_smt.Theory.ncalls);
    ("smt.theory.lits", i !Liquid_smt.Theory.nlits_total);
    ("smt.lia.calls", i !Liquid_smt.Lia.ncalls);
    ("smt.lia.nodes", i !Liquid_smt.Lia.nnodes_total);
    ("smt.lia.time_ms", lia_ms);
    ("smt.simplex.pivots", i !Liquid_smt.Simplex.npivots);
    ("engine.punit_hits", ri s.P.n_punit_hits);
    ("engine.punit_misses", ri s.P.n_punit_misses);
    ("cache.whole_hits", i s.P.n_pcache_hits);
    ("cache.store.lookups", sc (fun s -> s.Liquid_cache.Store.lookups));
    ("cache.store.hits", sc (fun s -> s.Liquid_cache.Store.hits));
    ("cache.store.misses", sc (fun s -> s.Liquid_cache.Store.misses));
    ("cache.store.writes", sc (fun s -> s.Liquid_cache.Store.writes));
    ("cache.store.rejected", sc (fun s -> s.Liquid_cache.Store.rejected));
    ("driver.concrete_check_ms", ph "concrete_check");
    ("explain.phase_ms", ph "explain");
    ("explain.smt_queries", ri s.P.n_explain_smt_queries);
    ("explain.explained", ri (List.length r.P.explanations));
    ("explain.hints", ri hints);
    ("gradual.phase_ms", ph "gradual");
    ("gradual.residuals", ri (List.length r.P.residuals));
  ]

(* Verify [p] here, the way [dsolve] would: parse then verify, or, with
   a cache directory, [verify_string], which probes the whole-run cache
   itself.  Runs inside a fresh worker process. *)
let verify_here ~traced ~req ?cache_dir (p : C.program) : result =
  spans := [];
  let on = traced and parent = "request" in
  let options = options_of ?cache_dir p in
  let t_start = now () in
  let outcome =
    try
      Ok
        (match cache_dir with
        | None ->
            let t0 = now () in
            let prog, decls =
              timed ~on ~parent ~req "Pipeline.parse_program_decls" (fun () ->
                  P.parse_program_decls ~name:p.name p.src)
            in
            let parse_time = now () -. t0 in
            timed ~on ~parent ~req "Pipeline.verify_program" (fun () ->
                P.verify_program ~options ~parse_time ~decls prog
                  ~source_lines:(P.count_lines p.src))
        | Some _ ->
            timed ~on ~parent ~req "Pipeline.verify_string" (fun () ->
                P.verify_string ~options ~name:p.name p.src))
    with P.Source_error _ -> Error "E_SOURCE"
  in
  let rss_kb = peak_rss_kb (Unix.getpid ()) in
  match outcome with
  | Error code ->
      { verdict = code; render = ""; elapsed = 0.0; counts = []; w_spans = !spans; rss_kb;
        whole_hit = false }
  | Ok r ->
      let whole_hit = r.P.stats.P.n_pcache_hits = 1 in
      (* A whole-run hit is nothing but the cache lookup, so its
         [verify_string] span is the lookup time. *)
      let lookup_ms =
        List.fold_left
          (fun a s ->
            if whole_hit && s.sp_name = "Pipeline.verify_string" then
              a +. (1000.0 *. (s.sp_t1 -. s.sp_t0))
            else a)
          0.0 !spans
      in
      if traced then begin
        (* The report's phases, laid end to end inside the verify span. *)
        let t = ref (if cache_dir = None then t_start else now () -. r.P.stats.P.elapsed) in
        let parent = if cache_dir = None then "Pipeline.verify_program" else "Pipeline.verify_string" in
        List.iter
          (fun (name, d) ->
            record ~parent ~req ("phase." ^ name) !t (!t +. d);
            t := !t +. d)
          r.P.stats.P.phases
      end;
      {
        verdict = verdict_of r;
        render = render r;
        elapsed = (if whole_hit then 0.0 else r.P.stats.P.elapsed);
        whole_hit;
        counts =
          (if traced then ("cache.lookup_ms", lookup_ms) :: counts_of r ~store:cache_dir
           else []);
        w_spans = !spans;
        rss_kb;
      }

(* -- Forked requests ---------------------------------------------------- *)

type sample = {
  s_group : string; (* program identity for per-program summaries *)
  s_lat : float; (* seconds, request issued to verdict received *)
  s_ok : bool;
  s_traced : bool;
  s_round : int;
  s_res : result;
  s_fork : float; (* seconds spent in Scheduler.submit *)
}

let rec select_retry fds timeout =
  try Unix.select fds [] [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry fds timeout

let result_of = function
  | S.Done r -> r
  | S.Failed { detail; _ } ->
      { verdict = "E_CRASH: " ^ detail; render = ""; elapsed = 0.0; counts = []; w_spans = [];
        rss_kb = 0; whole_hit = false }

let rec await job =
  match S.step job with
  | Some o -> o
  | None ->
      ignore (select_retry [ S.job_fd job ] 0.5);
      await job

(* Fork a fresh worker for [work]; its result and the time the fork
   returned. *)
let in_worker (work : unit -> result) : result * float =
  flush stdout;
  flush stderr;
  let job = S.submit ~timeout:60.0 work in
  let t_fork = now () in
  (result_of (await job), t_fork)

(* Does [verdict] answer [expect]? *)
let answers (p : C.program) verdict =
  match p.expect with
  | C.Verdict v -> verdict = v
  | C.Rejected code -> verdict = code
  | C.Failing ->
      verdict = "UNSAFE"
      || p.gradual
         && String.length verdict > 12
         && String.sub verdict 0 12 = "SAFE_MODULO "

(* Run [p] in a fresh worker, as one timed request. *)
let request ~traced ~round ~req ?cache_dir (p : C.program) =
  let t0 = now () in
  let res, t_fork =
    in_worker (fun () -> verify_here ~traced ~req ?cache_dir p)
  in
  let t1 = now () in
  if traced then begin
    record ~parent:"request" ~req "Scheduler.submit" t0 t_fork;
    record ~req "request" t0 t1
  end;
  {
    s_group = p.prog;
    s_lat = t1 -. t0;
    s_ok = answers p res.verdict;
    s_traced = traced;
    s_round = round;
    s_res = res;
    s_fork = t_fork -. t0;
  }

let ref_key (p : C.program) = p.name ^ "\x00" ^ p.src

(* Cold reference reports, each from its own fresh worker, two at a
   time; outside every timed region. *)
let references (ps : C.program list) : (string * result) list =
  let pending = ref ps and running = ref [] and out = ref [] in
  while !pending <> [] || !running <> [] do
    while List.length !running < 2 && !pending <> [] do
      let p = List.hd !pending in
      pending := List.tl !pending;
      flush stdout;
      let job = S.submit ~timeout:60.0 (fun () -> verify_here ~traced:false ~req:(-1) p) in
      running := (p, job) :: !running
    done;
    ignore (select_retry (List.map (fun (_, j) -> S.job_fd j) !running) 0.5);
    running :=
      List.filter
        (fun (p, j) ->
          match S.step j with
          | None -> true
          | Some o ->
              out := (ref_key p, result_of o) :: !out;
              false)
        !running
  done;
  !out

(* -- Scratch space inside the checkout ------------------------------------ *)

let work_root = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf d =
  match (Unix.lstat d).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat d e)) (Sys.readdir d);
      Unix.rmdir d
  | _ -> Sys.remove d
  | exception Unix.Unix_error _ -> ()

(* -- Outcome of a run ------------------------------------------------------ *)

type run = {
  samples : sample list; (* every timed request *)
  wall : float; (* timed region, seconds *)
  setup : float list; (* each set-up repetition, seconds *)
  rss_mb : float;
  delivered : int; (* verdicts: one per request, a batch's size in daemon-mix *)
  max_rate : float option; (* open-loop capacity, when measured *)
  extra_fail : string list; (* mismatches found by the oracle *)
  layer : (string * float) list; (* per-layer metrics, traced runs *)
  shares : (string * int) list; (* request classes, for the docs *)
  notes : string; (* extra summary line, may be "" *)
}

(* Per-layer metrics of a closed-loop run: sums over the first traced
   round (a fixed set of requests for a given seed, so the counts
   repeat exactly), plus medians of per-request harness timings. *)
let closed_loop_layers (samples : sample list) =
  let first = List.filter (fun s -> s.s_traced && s.s_round = 0) samples in
  let tot name =
    sum (List.map (fun s -> try List.assoc name s.s_res.counts with Not_found -> 0.0) first)
  in
  let names = match first with s :: _ -> List.map fst s.s_res.counts | [] -> [] in
  let names = List.filter (fun n -> n <> "explain.hints") names in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let traced = List.filter (fun s -> s.s_traced) samples in
  let untraced = List.filter (fun s -> not s.s_traced) samples in
  (* Over the programs both sets contain. *)
  let common =
    List.filter
      (fun g -> List.exists (fun s -> s.s_group = g) untraced)
      (List.sort_uniq compare (List.map (fun s -> s.s_group) traced))
  in
  let gm ss =
    let ss = List.filter (fun s -> List.mem s.s_group common) ss in
    geomean (List.map (fun (_, l) -> median l) (group (List.map (fun s -> (s.s_group, s.s_lat)) ss)))
  in
  List.map (fun n -> (n, tot n)) names
  @ [
      ("smt.cache_hit_ratio", ratio (tot "smt.cache_hits") (tot "smt.queries"));
      ( "engine.punit_reuse_ratio",
        ratio (tot "engine.punit_hits") (tot "engine.punit_hits" +. tot "engine.punit_misses") );
      ("engine.job_roundtrip_ms", 1000.0 *. median (List.map (fun s -> s.s_lat) traced));
      ("explain.hint_ratio", ratio (tot "explain.hints") (tot "explain.explained"));
      ("harness.fork_ms", 1000.0 *. median (List.map (fun s -> s.s_fork) traced));
      ( "harness.transport_ms",
        1000.0 *. sum (List.map (fun s -> s.s_lat -. s.s_res.elapsed) first) );
      ("harness.requests", float_of_int (List.length first));
      ( "trace.overhead_ms",
        if common = [] then 0.0 else 1000.0 *. (gm traced -. gm untraced) );
    ]

(* -- Closed-loop workloads ------------------------------------------------- *)

(* Run rounds of requests until at least [min_rounds] complete rounds
   and [seconds] have passed, ending on a multiple of [multiple] rounds.
   Only whole rounds are run, so every program contributes the same
   number of samples. *)
let closed_loop ?(multiple = 1) ~seconds ~min_rounds ~trace ~round_of ~exec () =
  let t0 = now () in
  let samples = ref [] and round = ref 0 and req = ref 0 in
  while !round < min_rounds || now () -. t0 < seconds || !round mod multiple <> 0 do
    let traced = trace && !round mod 2 = 0 in
    List.iter
      (fun item ->
        samples := exec ~traced ~round:!round ~req:!req item :: !samples;
        incr req)
      (round_of !round);
    incr round
  done;
  (List.rev !samples, now () -. t0)

(* A fresh process of this executable that loads the verifier's
   libraries and exits: the start-up every [dsolve] run pays, and where
   work moved into module initialisation would show. *)
let fresh_start () =
  flush stdout;
  flush stderr;
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--ready" |] Unix.stdin Unix.stdout Unix.stderr in
  ignore (Unix.waitpid [] pid)

(* Set up [k] times, each from a fresh start, keeping the last. *)
let setup_k k f =
  let times = ref [] and last = ref None in
  for _ = 1 to k do
    let t0 = now () in
    fresh_start ();
    let v = f () in
    times := (now () -. t0) :: !times;
    last := Some v
  done;
  (Option.get !last, List.rev !times)

let max_rss samples =
  float_of_int (List.fold_left (fun a s -> max a s.s_res.rss_kb) 0 samples) /. 1024.0

(* cold-suite: every program with a known verdict, a fresh process each. *)
let cold_suite ~seed ~seconds ~trace =
  let programs, setup =
    setup_k 5 (fun () -> C.cold_suite)
  in
  let samples, wall =
    closed_loop ~seconds ~min_rounds:3 ~trace
      ~round_of:(fun r -> C.shuffle (C.rng seed r) programs)
      ~exec:(fun ~traced ~round ~req p -> request ~traced ~round ~req p)
      ()
  in
  {
    samples;
    wall;
    setup;
    rss_mb = max_rss samples;
    delivered = List.length samples;
    max_rate = None;
    extra_fail = [];
    layer = (if trace then closed_loop_layers samples else []);
    shares = [ ("programs", List.length programs) ];
    notes = "";
  }

(* The interpreter's answer for a mutant: does running it trap? *)
let traps (src : string) =
  match P.parse_program_decls ~name:"mutant.ml" src with
  | exception _ -> false
  | prog, _ -> (
      match Liquid_eval.Eval.run_program ~fuel:2_000_000 prog with
      | _ -> false
      | exception (Liquid_eval.Eval.Bounds_violation _ | Liquid_eval.Eval.Assertion_failure _) ->
          true
      | exception _ -> false)

(* Trapping off-by-one mutants of each small program, found in a worker
   so the harness itself never parses a program. *)
let find_mutants () : (string * string list) list =
  let job =
    S.submit ~timeout:60.0 (fun () ->
        List.map
          (fun (p : C.program) ->
            if traps p.src then (p.prog, [])
            else (p.prog, List.filter traps (C.comparison_mutants p.src)))
          C.small)
  in
  match await job with
  | S.Done r -> r
  | S.Failed { detail; _ } -> failwith ("mutant search failed: " ^ detail)

(* diagnose: failing programs under --explain, a seeded half of them
   also under --explain --gradual. *)
let diagnose ~seed ~seconds ~trace =
  let base, setup =
    setup_k 3 (fun () ->
        let mutants =
          List.concat_map
            (fun (prog, ms) ->
              let p = List.find (fun (p : C.program) -> p.prog = prog) C.small in
              List.mapi
                (fun k src ->
                  let tag = Printf.sprintf "mut%d-%s" k prog in
                  { p with prog = tag; name = tag ^ ".ml"; src; explain = true; expect = C.Failing })
                ms)
            (find_mutants ())
        in
        C.ablated @ C.gradual ~gradual:false @ mutants)
  in
  let with_gradual (p : C.program) =
    let expect =
      match List.find_opt (fun (q : C.program) -> q.prog = p.prog) (C.gradual ~gradual:true) with
      | Some q -> q.expect
      | None -> C.Failing
    in
    { p with gradual = true; expect; prog = p.prog ^ "+gradual" }
  in
  (* Each round adds the gradual run of every other program, the half
     alternating with the round, so every pair of rounds holds each
     program in both modes whatever the seed. *)
  let round_of r =
    let half = List.filteri (fun k _ -> abs (k + r + seed) mod 2 = 0) base in
    C.shuffle (C.rng seed r) (base @ List.map with_gradual half)
  in
  let samples, wall =
    closed_loop ~multiple:2 ~seconds ~min_rounds:2 ~trace ~round_of
      ~exec:(fun ~traced ~round ~req p -> request ~traced ~round ~req p)
      ()
  in
  let n_mut = List.length (List.filter (fun (p : C.program) -> String.starts_with ~prefix:"mut" p.prog) base) in
  {
    samples;
    wall;
    setup;
    rss_mb = max_rss samples;
    delivered = List.length samples;
    max_rate = None;
    extra_fail = [];
    layer = (if trace then closed_loop_layers samples else []);
    shares =
      [
        ("programs", List.length base);
        ("gradual_per_round", List.length (List.filter (fun (p : C.program) -> p.gradual) (round_of 0)));
        ("mutants", n_mut);
      ];
    notes = "";
  }

(* edit-loop: seeded verdict-preserving edits of base programs saved
   through a persistent cache, one fresh process per save. *)
let edit_bases = [ "heapsort"; "sieve"; "queue"; "pascal"; "isort" ]

let edit_loop ~seed ~seconds ~trace ~dir =
  let bases =
    List.filter (fun (p : C.program) -> List.mem p.prog edit_bases) (C.t1 @ C.e1)
  in
  (* One edit class per (base, site), every other site with a parameter
     renamed: the same mix of edits whatever the seed. *)
  let classes =
    List.concat_map
      (fun (p : C.program) ->
        List.mapi
          (fun j (site : C.site) ->
            (p, site, if site.C.params <> [] && j mod 2 = 0 then C.Rename else C.Dead_let))
          (C.sites p.src))
      bases
  in
  let edited (p, site, kind) lit =
    { p with C.src = C.apply_edit p.C.src site kind ~lit }
  in
  let (), setup =
    setup_k 3 (fun () ->
        rm_rf dir;
        mkdir_p dir;
        List.iter
          (fun (p : C.program) ->
            let res, _ = in_worker (fun () -> verify_here ~traced:false ~req:(-1) ~cache_dir:dir p) in
            if not (answers p res.verdict) then failwith ("edit-loop: base " ^ p.prog ^ " misverified"))
          bases)
  in
  let resaves = ref 0 and edits = ref 0 in
  (* Each round saves every class once, in a seeded order, with a fresh
     dead literal; a quarter of the classes (which, rotating with the
     round and the seed) are saved a second time unchanged. *)
  let round_of r =
    let st = C.rng seed (3000 + r) in
    let lit = 100 + abs (((seed * 31) + r) mod 900) in
    List.concat_map
      (fun (k, cls) ->
        let e = edited cls lit in
        if abs (k + r + seed) mod 4 = 0 then [ (cls, e); (cls, e) ] else [ (cls, e) ])
      (C.shuffle st (List.mapi (fun k c -> (k, c)) classes))
  in
  (* At least eight rounds (about 25 s on a 2-vCPU host): a run then
     spans more of the host's slow and fast stretches, and every run
     makes the same number of saves.  With two, the geomean's spread over
     ten seeds reached 0.26. *)
  let samples, wall =
    closed_loop ~seconds ~min_rounds:8 ~trace ~round_of
      ~exec:(fun ~traced ~round ~req (_, e) ->
        request ~traced ~round ~req ~cache_dir:dir e)
      ()
  in
  (* The oracle: each class's cold uncached reference report (its text
     differs from a save's only in the dead literal, which no report
     mentions). *)
  let refs =
    references (List.map (fun cls -> edited cls 100) classes)
  in
  let ref_of cls = List.assoc (ref_key (edited cls 100)) refs in
  let fails = ref [] in
  let rounds = List.sort_uniq compare (List.map (fun s -> s.s_round) samples) in
  let samples =
    List.concat_map
      (fun r ->
        let items = round_of r in
        let ss = List.filter (fun s -> s.s_round = r) samples in
        let prev = ref "" in
        List.map2
          (fun (cls, e) s ->
            let key = ref_key e in
            let resave = key = !prev in
            if resave then incr resaves else incr edits;
            prev := key;
            let rf = ref_of cls in
            let fail why =
              fails := Printf.sprintf "%s (round %d): %s" e.C.name r why :: !fails;
              { s with s_ok = false }
            in
            if not s.s_ok then s
            else if s.s_res.render <> rf.render then fail "report differs from the cold reference"
            (* This round's literal was never saved before, so the first
               save must miss the whole-run cache (a hit would be a stale
               report); the unchanged re-save right after it must hit. *)
            else if s.s_res.whole_hit <> resave then
              fail (if resave then "unchanged re-save missed the cache" else "edited save hit the cache")
            else s)
          items ss)
      rounds
  in
  rm_rf dir;
  {
    samples;
    wall;
    setup;
    rss_mb = max_rss samples;
    delivered = List.length samples;
    max_rate = None;
    extra_fail = !fails;
    layer = (if trace then closed_loop_layers samples else []);
    shares = [ ("classes", List.length classes); ("edits", !edits); ("resaves", !resaves) ];
    notes = "";
  }

(* -- daemon-mix ------------------------------------------------------------ *)

let hot_names =
  [ "bcopy"; "isort"; "dotprod"; "queue"; "fibmemo"; "heapsort"; "transpose";
    "tree"; "stack"; "rbtree"; "tree-unsafe" ]

(* The offered load of daemon-mix.  [rate] is about an eighth of the hot
   capacity measured at this commit (max_rate_rps, 2,300-3,500 batches/s
   on a 2-vCPU host).  At a quarter (875/s) and a half (1,750/s) of it,
   the hot p90 of one seed varied 0.8-3.8 ms from run to run there, so
   no bound could hold; 300/s was the highest rate tried that stayed
   steady.  [cold_rate]: a cold solve of a small program takes about
   27 ms, so 3 colds/s keep the single solve worker (jobs = 1) under a
   tenth busy, and colds with their duplicates make 1.5% of requests,
   which puts p99 among the cold solves instead of on the edge between
   the hot and cold classes. *)
let rate = 300.0
let cold_rate = 3.0

let protocol_request (p : C.program) =
  Protocol.request ~qual_text:p.qual_text ~use_defaults:p.use_defaults ~mine:p.mine
    ~explain:p.explain ~gradual:p.gradual ~name:p.name p.src

let live_daemon = ref None

let start_daemon sock =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try
         Server.serve
           { (Server.default_config ~sock) with Server.jobs = 1; quiet = true;
             request_timeout = Some 120.0 }
       with _ -> ());
      Unix._exit 0
  | pid ->
      live_daemon := Some pid;
      pid

(* Readiness by fine polling (1 ms), not by the client's backoff. *)
let wait_ready sock =
  let deadline = now () +. 60.0 in
  let rec go () =
    match Client.connect sock with
    | c -> c
    | exception Unix.Unix_error _ when now () < deadline ->
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let stop_daemon sock pid =
  (try Client.with_connection sock Client.shutdown with _ -> ());
  ignore (Unix.waitpid [] pid);
  live_daemon := None

type conn = {
  fd : Unix.file_descr;
  rd : Protocol.reader;
  wr : Protocol.writer;
  inflight : int Queue.t;
}

let open_conn sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
  Protocol.send_request oc
    (Protocol.Hello { version = Protocol.version; stamp = Protocol.build_stamp });
  (match Protocol.recv_reply ic with
  | Protocol.Hello_ok _ -> ()
  | _ -> failwith "daemon refused the handshake");
  Unix.set_nonblock fd;
  { fd; rd = Protocol.reader_create (); wr = Protocol.writer_create (); inflight = Queue.create () }

type dreq = {
  d_progs : C.program list; (* one Verify batch *)
  d_class : string; (* hot | cold | dup | malformed *)
  d_group : string;
  d_conn : int;
  d_due : float; (* offset from the start of the phase *)
  mutable d_sent : float;
  mutable d_done : float;
  mutable d_reply : string option; (* key of its decoded reply in the table *)
  mutable d_bytes : int;
  mutable d_enc : float;
  mutable d_dec : float;
  mutable d_rehash : float;
}

(* Drive [reqs] (sorted by due time) through [conns]: each request is
   sent when due, whatever is still outstanding (open loop); with
   [window], instead, at most that many are outstanding (saturation).
   Decoded replies go into [replies], keyed by their payload's digest and
   batch size: equal payloads decode to equal replies, so a reply the
   daemon repeats is kept, and later checked, once. *)
let drive ?window ~trace ~replies conns (reqs : dreq array) =
  let n = Array.length reqs in
  let t0 = now () in
  let next = ref 0 and completed = ref 0 and outstanding = ref 0 in
  let send i =
    let r = reqs.(i) in
    let c = conns.(r.d_conn) in
    let traced = trace && i mod 2 = 0 in
    let te = now () in
    let payload =
      Protocol.string_of_request (Protocol.Verify (List.map protocol_request r.d_progs))
    in
    let ts = now () in
    if traced then begin
      r.d_enc <- ts -. te;
      record ~parent:"request" ~req:i "Protocol.string_of_request" te ts
    end;
    r.d_sent <- ts;
    Protocol.writer_push c.wr payload;
    Queue.push i c.inflight;
    incr outstanding
  in
  let receive c payload =
    let i = Queue.pop c.inflight in
    let r = reqs.(i) in
    let traced = trace && i mod 2 = 0 in
    let td = now () in
    let reply = Protocol.reply_of_string payload in
    let tr = now () in
    let reply =
      match reply with
      | Protocol.Results vs when List.length vs = List.length r.d_progs ->
          List.map
            (function Protocol.Verified rep -> Protocol.Verified (P.rehash_report rep) | v -> v)
            vs
      | _ ->
          List.map
            (fun _ -> Protocol.Rejected { Protocol.ve_code = "E_PROTOCOL"; ve_message = "" })
            r.d_progs
    in
    let tf = now () in
    if traced then begin
      r.d_dec <- tr -. td;
      r.d_rehash <- tf -. tr;
      record ~parent:"request" ~req:i "Protocol.reply_of_string" td tr;
      record ~parent:"request" ~req:i "Pipeline.rehash_report" tr tf;
      record ~req:i "request" (t0 +. r.d_due) tf
    end;
    r.d_bytes <- String.length payload;
    let key = Digest.string payload ^ string_of_int (List.length r.d_progs) in
    if not (Hashtbl.mem replies key) then Hashtbl.add replies key reply;
    r.d_reply <- Some key;
    r.d_done <- tf;
    decr outstanding;
    incr completed
  in
  while !completed < n do
    let t = now () in
    if t -. t0 > 120.0 then failwith "the daemon stopped answering";
    (match window with
    | None ->
        while !next < n && t0 +. reqs.(!next).d_due <= t do
          send !next;
          incr next
        done
    | Some w ->
        while !next < n && !outstanding < w do
          send !next;
          incr next
        done);
    Array.iter
      (fun c -> if Protocol.writer_pending c.wr then ignore (Protocol.writer_step c.fd c.wr))
      conns;
    let timeout =
      match window with
      | None when !next < n -> Float.max 0.0 (t0 +. reqs.(!next).d_due -. now ())
      | _ -> 1.0
    in
    let wfds =
      Array.to_list conns
      |> List.filter (fun c -> Protocol.writer_pending c.wr)
      |> List.map (fun c -> c.fd)
    in
    let rfds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let readable, _, _ =
      try Unix.select rfds wfds [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iter
      (fun c ->
        if List.mem c.fd readable then
          match Protocol.reader_step c.fd c.rd with
          | Protocol.Frames fs -> List.iter (receive c) fs
          | Protocol.Closed -> failwith "daemon closed a connection")
      conns
  done;
  (now () -. t0, t0)

let daemon_mix ~seed ~seconds ~trace =
  let sock = Printf.sprintf ".bench_build/pb%d.sock" (Unix.getpid ()) in
  let hot =
    List.filter (fun (p : C.program) -> List.mem p.prog hot_names) (C.t1 @ C.e1 @ C.adt)
    @ [ (let g = List.hd (C.gradual ~gradual:true) in { g with C.prog = g.C.prog ^ "+gradual" }) ]
  in
  let colds = List.filter (fun (p : C.program) -> List.mem p.prog [ "bcopy"; "isort" ]) C.small in
  (* Set-up: fork the daemon, poll until it answers, then warm its memo
     with the hot set; three times, each daemon stopped before the next. *)
  let prev = ref None and fork_times = ref [] in
  let (pid, warm), setup =
    setup_k 3 (fun () ->
        (match !prev with Some pid -> stop_daemon sock pid | None -> ());
        let tf = now () in
        let pid = start_daemon sock in
        fork_times := (now () -. tf) :: !fork_times;
        prev := Some pid;
        let c = wait_ready sock in
        let warm = Client.verify c (List.map protocol_request hot) in
        Client.close c;
        (pid, warm))
  in
  (* The schedule: [rate] requests/s for most of the run, [cold_rate] of
     them cold (see the constants).  Hot repeats go on one connection,
     each a batch of the whole hot set (a client re-checking its
     project), so every hot request does the same work and the latency
     percentiles do not fall between programs' costs.  Cold
     alpha-variants of two small programs (half of them followed by an
     in-flight duplicate) and malformed sources go on the other, one per
     stretch of the schedule, so two colds never queue behind each other.
     The counts of each class are fixed; the seed picks positions and
     programs. *)
  let st = C.rng seed 4000 in
  let slots = int_of_float (rate *. seconds *. 0.8) in
  let n_cold = max 2 (int_of_float (cold_rate *. seconds *. 0.8)) in
  let n_bad = max 1 (n_cold / 3) in
  let cold_a = Array.of_list colds in
  let mk ?(conn = 0) cls group due ps =
    { d_progs = ps; d_class = cls; d_group = group; d_conn = conn; d_due = due;
      d_sent = 0.0; d_done = 0.0; d_reply = None; d_bytes = 0; d_enc = 0.0; d_dec = 0.0;
      d_rehash = 0.0 }
  in
  (* One slot in the first half of each of [n] equal stretches. *)
  let spread n =
    List.init n (fun k ->
        let w = slots / n in
        (k * w) + Random.State.int st (max 1 (w / 2)))
  in
  let cold_at = spread n_cold in
  (* Malformed sources sit in the second half of a cold's stretch. *)
  let bad_at =
    let w = slots / n_cold in
    List.init n_bad (fun k ->
        (k * n_cold / n_bad * w) + (w / 2) + Random.State.int st (max 1 (w / 2)))
  in
  let dups = C.shuffle st (List.init n_cold (fun k -> k mod 2 = 0)) |> Array.of_list in
  let reqs =
    List.concat
      (List.init slots (fun i ->
           let due = float_of_int i /. rate in
           match List.find_index (( = ) i) cold_at with
           | Some k ->
               let b = cold_a.(k mod Array.length cold_a) in
               let v = { b with C.src = C.alpha_variant b.C.src (Printf.sprintf "_v%d" i);
                         name = Printf.sprintf "%s_v%d.ml" b.C.prog i } in
               let g = "cold:" ^ b.C.prog in
               if dups.(k) then [ mk ~conn:1 "cold" g due [ v ]; mk ~conn:1 "dup" g due [ v ] ]
               else [ mk ~conn:1 "cold" g due [ v ] ]
           | None when List.mem i bad_at ->
               let src = C.malformed.(i mod Array.length C.malformed) in
               [ mk ~conn:1 "malformed" "malformed" due
                   [ C.mk ~expect:(C.Rejected "E_SOURCE") (Printf.sprintf "bad%d" i) src ] ]
           | None -> [ mk "hot" "hot" due hot ]))
    |> Array.of_list
  in
  let stats_now () = Client.with_connection sock Client.stats in
  let s0 = stats_now () in
  let conns = [| open_conn sock; open_conn sock |] in
  let replies = Hashtbl.create 64 in
  let wall, t0 = drive ~trace ~replies conns reqs in
  let s1 = stats_now () in
  (* Capacity: hot traffic only, at most 16 requests outstanding, so the
     backlog cannot grow; the median of ten windows of 300 requests.
     Their replies are checked with the rest. *)
  let window () =
    let rs = Array.init 300 (fun _ -> mk "capacity" "capacity" 0.0 hot) in
    let w, _ = drive ~window:16 ~trace:false ~replies conns rs in
    (float_of_int (Array.length rs) /. w, rs)
  in
  let windows, capacity_reqs = List.split (List.init 10 (fun _ -> window ())) in
  let max_rate = median windows in
  let rss_mb = float_of_int (peak_rss_kb pid) /. 1024.0 in
  Array.iter (fun c -> Unix.close c.fd) conns;
  stop_daemon sock pid;
  (* The oracle, outside the timed region: known answers, then
     byte-identity with a cold reference solved in its own worker. *)
  let distinct =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> if r.d_class = "malformed" then None else Some r.d_progs)
         (Array.to_list reqs)
      |> List.concat
      |> List.map (fun p -> (ref_key p, p)))
  in
  let refs = references (List.map snd distinct) in
  let fails = ref [] in
  let check (p : C.program) what verdict rendered =
    let ok =
      answers p verdict
      && (verdict = "E_SOURCE" || rendered = (List.assoc (ref_key p) refs).render)
    in
    if not ok then fails := Printf.sprintf "%s (%s): %s" p.name what verdict :: !fails;
    ok
  in
  let outcome = function
    | Protocol.Verified rep -> (verdict_of rep, render rep)
    | Protocol.Rejected e -> (e.Protocol.ve_code, "")
  in
  (* Every program of a batch must answer; the request's verdict is the
     first wrong one, if any. *)
  let check_batch what ps replies =
    List.fold_left2
      (fun (ok, v) p reply ->
        let verdict, rendered = outcome reply in
        if check p what verdict rendered then (ok, v) else (false, verdict))
      (true, "ok") ps replies
  in
  (* A request's check, once per distinct (reply, batch) pair. *)
  let checked = Hashtbl.create 64 in
  let check_req r =
    match r.d_reply with
    | None -> (false, "E_NOREPLY")
    | Some key ->
        let k = (key, List.map ref_key r.d_progs) in
        (match Hashtbl.find_opt checked k with
        | Some v -> v
        | None ->
            let v = check_batch r.d_class r.d_progs (Hashtbl.find replies key) in
            Hashtbl.add checked k v;
            v)
  in
  ignore (check_batch "warm-up" hot warm);
  let capacity_fails =
    Array.fold_left
      (fun a r -> if fst (check_req r) then a else a + 1)
      0 (Array.concat capacity_reqs)
  in
  if capacity_fails > 0 then
    fails := Printf.sprintf "%d capacity replies wrong" capacity_fails :: !fails;
  (* Verdicts delivered: every program's answer in a well-formed reply. *)
  let delivered =
    Array.fold_left
      (fun a r ->
        match r.d_reply with
        | None -> a
        | Some key ->
            a
            + List.length
                (List.filter
                   (function
                     | Protocol.Rejected { Protocol.ve_code = "E_PROTOCOL"; _ } -> false
                     | _ -> true)
                   (Hashtbl.find replies key)))
      0 reqs
  in
  let samples =
    Array.to_list
      (Array.mapi
         (fun i r ->
           let ok, verdict = check_req r in
           {
             s_group = r.d_group;
             s_lat = r.d_done -. (t0 +. r.d_due);
             s_ok = ok;
             s_traced = trace && i mod 2 = 0;
             s_round = 0;
             s_res =
              { verdict; render = ""; elapsed = 0.0; counts = []; w_spans = []; rss_kb = 0;
                whole_hit = false };
             s_fork = 0.0;
           })
         reqs)
  in
  let rl = Array.to_list reqs in
  let cls c = List.filter (fun r -> r.d_class = c) rl in
  let traced = List.filteri (fun i _ -> trace && i mod 2 = 0) rl in
  let lat r = 1000.0 *. (r.d_done -. (t0 +. r.d_due)) in
  let med f rs = match rs with [] -> 0.0 | _ -> median (List.map f rs) in
  let d f = float_of_int (f s1 - f s0) in
  let layer =
    if not trace then []
    else
      let hot_of rs = List.filter (fun r -> r.d_class = "hot") rs in
      let untraced_hot = List.filteri (fun i r -> i mod 2 = 1 && r.d_class = "hot") rl in
      [
        ("server.rtt_ms.hot.p50", med lat (hot_of traced));
        ("server.rtt_ms.cold.p50", med lat (List.filter (fun r -> r.d_class = "cold") traced));
        ("server.mem_hits", d (fun s -> s.Protocol.sv_mem_hits));
        ("server.coalesced", d (fun s -> s.Protocol.sv_coalesced));
        ("server.cold", d (fun s -> s.Protocol.sv_cold));
        ("server.failures", d (fun s -> s.Protocol.sv_failures));
        ("server.shed", d (fun s -> s.Protocol.sv_shed));
        ("protocol.encode_us", 1e6 *. med (fun r -> r.d_enc) traced);
        ("protocol.decode_us", 1e6 *. med (fun r -> r.d_dec) traced);
        ("protocol.reply_bytes", float_of_int (List.fold_left (fun a r -> a + r.d_bytes) 0 rl));
        ("driver.rehash_ms", 1000.0 *. sum (List.map (fun r -> r.d_rehash) traced));
        ("harness.lag_ms", 1000.0 *. med (fun r -> r.d_sent -. (t0 +. r.d_due)) rl);
        ("harness.fork_ms", 1000.0 *. median !fork_times);
        ("harness.requests", float_of_int (List.length rl));
        ("trace.overhead_ms", med lat (hot_of traced) -. med lat untraced_hot);
      ]
  in
  {
    samples;
    wall;
    setup;
    rss_mb;
    delivered;
    max_rate = Some max_rate;
    extra_fail = !fails;
    layer;
    shares =
      List.map (fun c -> (c, List.length (cls c))) [ "hot"; "cold"; "dup"; "malformed" ];
    notes =
      String.concat " "
        (List.map
           (fun c ->
             let l = List.map lat (cls c) in
             if l = [] then ""
             else
               Printf.sprintf "%s p50/p90/p99 = %.3f/%.3f/%.3f ms;" c (quantile 0.5 l)
                 (quantile 0.9 l) (quantile 0.99 l))
           [ "hot"; "cold"; "dup"; "malformed" ])
      ^ Printf.sprintf " capacity windows: %s" (String.concat " " (List.map (Printf.sprintf "%.0f") windows));
  }

(* -- Metrics and the command line ----------------------------------------- *)

let end_to_end (r : run) =
  let lats = List.map (fun s -> s.s_lat) r.samples in
  let n = float_of_int (List.length lats) in
  let ok = float_of_int (List.length (List.filter (fun s -> s.s_ok) r.samples)) in
  let per_program =
    List.map (fun (_, l) -> median l) (group (List.map (fun s -> (s.s_group, s.s_lat)) r.samples))
  in
  let throughput = float_of_int r.delivered /. r.wall in
  [
    ("setup_s", "s", median r.setup);
    ("programs_per_s", "1/s", throughput);
    ("latency_ms.p50", "ms", 1000.0 *. quantile 0.5 lats);
    ("latency_ms.p90", "ms", 1000.0 *. quantile 0.9 lats);
    ("latency_ms.p99", "ms", 1000.0 *. quantile 0.99 lats);
    ("latency_ms.geomean", "ms", 1000.0 *. geomean per_program);
    ("max_rate_rps", "1/s", Option.value r.max_rate ~default:throughput);
    ("ok_ratio", "ratio", ok /. n);
    ("peak_rss_mb", "MB", r.rss_mb);
  ]

(* Every per-layer metric; a layer a workload bypasses reads 0. *)
let per_layer_names =
  [
    "lang.parse_ms"; "anf.normalize_ms"; "typing.infer_ms"; "liquid.congen_ms";
    "liquid.kvars"; "liquid.subs"; "liquid.candidates"; "liquid.partitions";
    "liquid.critical_path"; "liquid.fixpoint_self_ms"; "liquid.prune_ms";
    "liquid.reinstate_ms"; "liquid.implication_checks"; "liquid.quals_pruned";
    "liquid.reinstated"; "smt.time_ms"; "smt.self_ms"; "smt.queries"; "smt.sat_checks";
    "smt.cache_hits"; "smt.cache_hit_ratio"; "smt.work_units"; "smt.dpll.models";
    "smt.theory.calls"; "smt.theory.lits"; "smt.lia.calls"; "smt.lia.nodes";
    "smt.lia.time_ms"; "smt.simplex.pivots"; "engine.punit_hits"; "engine.punit_misses";
    "engine.punit_reuse_ratio"; "engine.job_roundtrip_ms"; "cache.lookup_ms";
    "cache.whole_hits"; "cache.store.lookups"; "cache.store.hits"; "cache.store.misses";
    "cache.store.writes"; "cache.store.rejected"; "driver.rehash_ms";
    "driver.concrete_check_ms"; "server.rtt_ms.hot.p50"; "server.rtt_ms.cold.p50";
    "server.mem_hits"; "server.coalesced"; "server.cold"; "server.failures"; "server.shed";
    "protocol.encode_us"; "protocol.decode_us"; "protocol.reply_bytes"; "explain.phase_ms";
    "explain.smt_queries"; "explain.explained"; "explain.hint_ratio"; "gradual.phase_ms";
    "gradual.residuals"; "harness.lag_ms"; "harness.fork_ms"; "harness.transport_ms";
    "harness.requests"; "harness.count_mismatches"; "trace.overhead_ms";
  ]

let unit_of name =
  let ends s = Filename.check_suffix name s in
  if ends "_ms" || ends ".p50" then "ms"
  else if ends "_us" then "us"
  else if ends "_ratio" then "ratio"
  else if ends "_bytes" then "bytes"
  else "count"

(* Counts (not times) must repeat exactly across traced runs with one
   seed: compare with the previous traced run's, then replace them. *)
let count_mismatches path layer =
  let counts =
    List.filter
      (fun (n, _) ->
        let u = unit_of n in
        (u = "count" || u = "bytes") && n <> "harness.count_mismatches")
      layer
  in
  let previous =
    if Sys.file_exists path then begin
      let ic = open_in path in
      let rec read acc =
        match input_line ic with
        | l -> ( match String.split_on_char ' ' l with [ n; v ] -> read ((n, v) :: acc) | _ -> read acc)
        | exception End_of_file -> acc
      in
      let r = read [] in
      close_in ic;
      Some r
    end
    else None
  in
  let fmt v = Printf.sprintf "%.17g" v in
  let oc = open_out path in
  List.iter (fun (n, v) -> Printf.fprintf oc "%s %s\n" n (fmt v)) counts;
  close_out oc;
  match previous with
  | None -> 0
  | Some prev ->
      List.length
        (List.filter
           (fun (n, v) ->
             match List.assoc_opt n prev with
             | Some pv when pv = fmt v -> false
             | pv ->
                 Printf.printf "count mismatch: %s = %s, previous run %s\n" n (fmt v)
                   (Option.value pv ~default:"absent");
                 true)
           counts)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let usage () =
  prerr_endline
    "usage: perfbench --workload (cold-suite|edit-loop|daemon-mix|diagnose) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  if Array.mem "--ready" Sys.argv then exit 0;
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: n :: rest -> seconds := float_of_string n; parse rest
    | "--trace" :: t :: rest -> trace := (t = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let seed = !seed and seconds = !seconds and trace = !trace in
  mkdir_p work_root;
  let scratch = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let run =
    try
      match !workload with
      | "cold-suite" -> cold_suite ~seed ~seconds ~trace
      | "diagnose" -> diagnose ~seed ~seconds ~trace
      | "edit-loop" -> edit_loop ~seed ~seconds ~trace ~dir:(Filename.concat scratch "cache")
      | "daemon-mix" -> daemon_mix ~seed ~seconds ~trace
      | _ -> usage ()
    with e ->
      (match !live_daemon with
      | Some pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
      | None -> ());
      rm_rf scratch;
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 1
  in
  rm_rf scratch;
  let n = List.length run.samples in
  let failed = List.length (List.filter (fun s -> not s.s_ok) run.samples) in
  let correct = failed = 0 && run.extra_fail = [] in
  List.iter (fun f -> Printf.printf "MISMATCH %s\n" f) (List.rev run.extra_fail);
  let rounds = List.length (List.sort_uniq compare (List.map (fun s -> s.s_round) run.samples)) in
  let beyond q = int_of_float (Float.round ((1.0 -. q) *. float_of_int n)) in
  Printf.printf
    "%s seed=%d: %d requests in %d round(s) over %.2f s; %d beyond p90, %d beyond p99; setup x%d\n"
    !workload seed n rounds run.wall (beyond 0.9) (beyond 0.99) (List.length run.setup);
  Printf.printf "shares: %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) run.shares));
  if run.notes <> "" then print_endline run.notes;
  let metrics =
    if not trace then List.map (fun (n, u, v) -> (n, u, v)) (end_to_end run)
    else begin
      let base = Printf.sprintf "%s-seed%d" !workload seed in
      let all_spans =
        !spans @ List.concat_map (fun s -> s.s_res.w_spans) run.samples
      in
      let tpath = Filename.concat work_root ("trace-" ^ base ^ ".json") in
      write_trace tpath all_spans;
      Printf.printf "trace: %s (%d spans)\n" tpath (List.length all_spans);
      let layer = List.map (fun n -> (n, try List.assoc n run.layer with Not_found -> 0.0)) per_layer_names in
      let mism = count_mismatches (Filename.concat work_root ("counts-" ^ base ^ ".txt")) layer in
      List.map
        (fun (n, v) -> (n, unit_of n, if n = "harness.count_mismatches" then float_of_int mism else v))
        layer
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct n
    failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          metrics))
