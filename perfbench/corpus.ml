(* Benchmark inputs: the in-repo programs with a known verdict, and the
   seeded transformations the workloads apply to them.  Every known
   answer here comes from the corpus definition or from the reference
   interpreter, never from the verifier being measured. *)

module Programs = Liquid_suite.Programs
module Extended = Liquid_suite.Extended

(* What a request must come back with. *)
type expect =
  | Verdict of string (* exact verdict: "SAFE", "UNSAFE", "SAFE_MODULO 2" *)
  | Failing (* UNSAFE; with --gradual also SAFE_MODULO n, n >= 1 *)
  | Rejected of string (* a structured rejection code, e.g. E_SOURCE *)

(* One verification request, with the options [dsolve] would be given.
   Qualifier text is parsed by whoever verifies, never by the harness. *)
type program = {
  prog : string; (* identity for per-program summaries *)
  name : string; (* file name given to the verifier *)
  src : string;
  qual_text : string; (* extra qualifier declarations *)
  use_defaults : bool; (* include the default qualifier set *)
  mine : bool;
  explain : bool;
  gradual : bool;
  expect : expect;
}

let mk ?(qual_text = "") ?(use_defaults = true) ?(mine = true)
    ?(explain = false) ?(gradual = false) ~expect prog src =
  {
    prog;
    name = prog ^ ".ml";
    src;
    qual_text;
    use_defaults;
    mine;
    explain;
    gradual;
    expect;
  }

(* The 11 programs of the paper's table, each with its qualifier set and
   mining off, as the results table verifies them. *)
let t1 =
  List.map
    (fun (b : Programs.benchmark) ->
      mk ~qual_text:b.extra_qualifiers ~mine:false ~expect:(Verdict "SAFE")
        b.name b.source)
    Programs.all

(* The extended suite, verified with mining on: all SAFE. *)
let e1 =
  List.map
    (fun (b : Programs.benchmark) ->
      mk ~qual_text:b.extra_qualifiers ~expect:(Verdict "SAFE") b.name
        b.source)
    Extended.all

(* Datatypes and measures: three SAFE programs and one whose assertion
   overclaims by one. *)
let adt_tree_decls =
  "type tree = Leaf | Node of tree * int * tree\n\
   measure size : tree =\n\
  \  | Leaf -> 0\n\
  \  | Node (l, _, r) -> 1 + size l + size r\n"

let adt_size_of =
  "let rec size_of t =\n\
  \  match t with\n\
  \  | Leaf -> 0\n\
  \  | Node (l, x, r) -> 1 + size_of l + size_of r\n"

let adt =
  [
    mk ~expect:(Verdict "SAFE") "tree"
      (adt_tree_decls
     ^ "measure height : tree =\n\
       \  | Leaf -> 0\n\
       \  | Node (l, _, r) -> 1 + max (height l) (height r)\n" ^ adt_size_of
     ^ "let check_grow l x r = assert (size_of (Node (l, x, r)) > size_of l)\n\
        let main = check_grow (Node (Leaf, 1, Leaf)) 2 Leaf");
    mk ~expect:(Verdict "SAFE") "stack"
      "type stack = Empty | Push of int * stack\n\
       measure depth : stack =\n\
      \  | Empty -> 0\n\
      \  | Push (_, rest) -> 1 + depth rest\n\
       let rec depth_of s =\n\
      \  match s with\n\
      \  | Empty -> 0\n\
      \  | Push (x, rest) -> 1 + depth_of rest\n\
       let push_grows x s = assert (depth_of (Push (x, s)) > depth_of s)\n\
       let main = push_grows 1 (Push (2, Empty))";
    mk ~expect:(Verdict "SAFE") "rbtree"
      "type color = Red | Black\n\
       type rbt = Nil | T of color * rbt * int * rbt\n\
       measure isred : color = | Red -> 1 | Black -> 0\n\
       measure reds : rbt =\n\
      \  | Nil -> 0\n\
      \  | T (c, l, _, r) -> isred c + reds l + reds r\n\
       let rec count_reds t =\n\
      \  match t with\n\
      \  | Nil -> 0\n\
      \  | T (c, l, x, r) ->\n\
      \      (match c with Red -> 1 | Black -> 0) + count_reds l + count_reds r\n\
       let red_root_adds l x r =\n\
      \  assert (count_reds (T (Red, l, x, r)) > count_reds l + count_reds r)\n\
       let main = red_root_adds Nil 7 (T (Black, Nil, 8, Nil))";
    mk ~expect:(Verdict "UNSAFE") "tree-unsafe"
      (adt_tree_decls ^ adt_size_of
     ^ "let check_grow l x r = assert (size_of (Node (l, x, r)) > size_of l + \
        1)\n\
        let main = check_grow Leaf 5 Leaf");
  ]

(* Obligations the fixpoint cannot discharge: under --gradual each
   demotes to the given number of residual casts; without it the
   program is UNSAFE.  (name, source, default qualifiers?, residuals) *)
let gradual_sources =
  [
    ( "assertgap",
      "let rec sum k =\n\
      \  if k < 0 then 0\n\
      \  else begin\n\
      \    let s = sum (k - 1) in\n\
      \    s + k\n\
      \  end\n\n\
       let total = sum 5\n\
       let ok = assert (0 <= total)\n",
      false,
      1 );
    ( "overrun",
      "let a = Array.make 10 0\n\n\
       let rec fill i =\n\
      \  if i <= 10 then begin\n\
      \    a.(i) <- i;\n\
      \    fill (i + 1)\n\
      \  end\n\
      \  else 0\n\n\
       let start = fill 0\n",
      true,
      1 );
    ( "sharded",
      "let a = Array.make 10 0\n\
       let b = Array.make 20 0\n\n\
       let rec fill i =\n\
      \  if i <= 10 then begin\n\
      \    a.(i) <- i;\n\
      \    fill (i + 1)\n\
      \  end\n\
      \  else 0\n\n\
       let rec fillb j =\n\
      \  if j <= 20 then begin\n\
      \    b.(j) <- j;\n\
      \    fillb (j + 1)\n\
      \  end\n\
      \  else 0\n\n\
       let rec h n = if n < 1 then 1 else h (n - 1)\n\n\
       let s1 = fill 0\n\
       let s2 = fillb 0\n\
       let s3 = h 5\n",
      true,
      2 );
  ]

let gradual ~gradual =
  List.map
    (fun (name, src, use_defaults, n) ->
      let expect =
        if gradual then Verdict (Printf.sprintf "SAFE_MODULO %d" n)
        else Verdict "UNSAFE"
      in
      mk ~use_defaults ~explain:true ~gradual ~expect name src)
    gradual_sources

(* The qualifier ablation: each of these fails once its custom
   qualifier is withheld.  [fibmemo] fails without constant mining. *)
let ablated =
  List.map
    (fun n ->
      let b = Programs.find n in
      mk ~mine:false ~explain:true ~expect:Failing ("abl-" ^ n) b.source)
    [ "tower"; "simplex"; "gauss"; "bcopy" ]
  @
  let b = Extended.find "fibmemo" in
  [
    mk ~qual_text:b.extra_qualifiers ~mine:false ~explain:true ~expect:Failing
      "nomine-fibmemo" b.source;
  ]

let cold_suite = t1 @ e1 @ adt

(* -- Deterministic pseudo-randomness ----------------------------------- *)

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* -- Textual transformations -------------------------------------------- *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Replace every whole-identifier occurrence of [x] in [s] by [y]. *)
let rename_ident ~x ~y s =
  let n = String.length s and k = String.length x in
  let b = Buffer.create (n + 16) in
  let i = ref 0 in
  while !i < n do
    if
      !i + k <= n
      && String.sub s !i k = x
      && (!i = 0 || not (is_ident_char s.[!i - 1]))
      && (!i + k = n || not (is_ident_char s.[!i + k]))
    then begin
      Buffer.add_string b y;
      i := !i + k
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* A [let] header that ends its line: [  let rec f a b =]. *)
let header_re =
  Str.regexp
    "^\\( *\\)let \\(rec \\)?\\([a-z_][A-Za-z0-9_']*\\)\\(\\( [a-z_][A-Za-z0-9_']*\\)*\\) =$"

type site = {
  line : int; (* header line index *)
  indent : int;
  fname : string;
  params : string list;
}

let sites src =
  let lines = String.split_on_char '\n' src in
  List.concat
    (List.mapi
       (fun i l ->
         if Str.string_match header_re l 0 then
           [
             {
               line = i;
               indent = String.length (Str.matched_group 1 l);
               fname = Str.matched_group 3 l;
               params =
                 List.filter (( <> ) "")
                   (String.split_on_char ' ' (Str.matched_group 4 l));
             };
           ]
         else [])
       lines)

(* Edits a developer might save that cannot change a verdict. *)
type edit_kind =
  | Dead_let (* a dead [let] with a literal at the top of the body *)
  | Rename (* the first parameter renamed, plus the dead [let] *)

(* Apply an edit at [site]; [lit] is the dead literal (three digits, so
   every edit of one class has the same length and the same spans). *)
let apply_edit src site kind ~lit =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let n = Array.length lines in
  (* The definition spans its header and every following line indented
     deeper than it. *)
  let last = ref site.line in
  while
    !last + 1 < n
    &&
    let l = lines.(!last + 1) in
    l = ""
    ||
    let ind = String.length l - String.length (String.trim l) in
    ind > site.indent
  do
    incr last
  done;
  (match (kind, site.params) with
  | Rename, p :: _ ->
      for i = site.line to !last do
        lines.(i) <- rename_ident ~x:p ~y:(p ^ "_ed") lines.(i)
      done
  | _ -> ());
  (* On the header's own line, so no other line moves. *)
  lines.(site.line) <- lines.(site.line) ^ Printf.sprintf " let dead_edit = %d in" lit;
  String.concat "\n" (Array.to_list lines)

(* Alpha-rename every top-level function (not [main]) with a suffix:
   a distinct request key whose verdict is the original's. *)
let alpha_variant src suffix =
  List.fold_left
    (fun s site ->
      if site.indent = 0 && site.fname <> "main" then
        rename_ident ~x:site.fname ~y:(site.fname ^ suffix) s
      else s)
    src (sites src)

(* Off-by-one mutants: flip one comparison between strict and non-strict.
   Returns every mutant, in source order; the caller keeps the ones the
   interpreter traps on. *)
let comparison_mutants src =
  let n = String.length src in
  let at i c = i >= 0 && i < n && src.[i] = c in
  let muts = ref [] in
  let splice i len repl =
    String.sub src 0 i ^ repl ^ String.sub src (i + len) (n - i - len)
  in
  for i = 0 to n - 1 do
    match src.[i] with
    | '<' when at (i + 1) '=' -> muts := splice i 2 "<" :: !muts
    | '<' when not (at (i + 1) '-' || at (i + 1) '>') ->
        muts := splice i 1 "<=" :: !muts
    | '>' when at (i + 1) '=' -> muts := splice i 2 ">" :: !muts
    | '>' when not (at (i - 1) '-' || at (i - 1) '<') ->
        muts := splice i 1 ">=" :: !muts
    | _ -> ()
  done;
  List.rev !muts

(* Small programs the mutants and the daemon's cold variants start from. *)
let small =
  List.filter
    (fun p -> List.mem p.prog [ "dotprod"; "bcopy"; "isort"; "queue"; "sieve"; "selsort"; "fibmemo" ])
    (t1 @ e1)

let malformed =
  [| "let x = (in in"; "let rec = 1"; "let f x = x +"; "let main = (1, 2" |]
