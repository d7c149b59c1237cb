(* Tests for the ParC concrete syntax: print/parse round-trips over every
   benchmark program, plus targeted parses and error cases. *)

module Pp = Fs_ir.Pp
module Parser = Fs_parc.Parser
module Lexer = Fs_parc.Lexer
module W = Fs_workloads.Workload

(* The robust round-trip property: printing, parsing and re-printing is a
   fixed point (ASTs may normalize, e.g. negated literals). *)
let roundtrip_fixed name prog =
  let s1 = Pp.program_to_string prog in
  match Parser.parse_result s1 with
  | Error m -> Alcotest.fail (name ^ ": " ^ m)
  | Ok p2 ->
    let s2 = Pp.program_to_string p2 in
    Alcotest.(check string) (name ^ " round-trips") s1 s2

let test_roundtrip_workloads () =
  List.iter
    (fun (w : W.t) ->
      roundtrip_fixed w.name (w.build ~nprocs:5 ~scale:1);
      roundtrip_fixed (w.name ^ "@12") (w.build ~nprocs:12 ~scale:2))
    Fs_workloads.Workloads.every

let test_roundtrip_is_ast_identical () =
  (* for most programs the AST itself round-trips exactly *)
  List.iter
    (fun (w : W.t) ->
      let p = w.build ~nprocs:4 ~scale:1 in
      let p2 = Parser.parse (Pp.program_to_string p) in
      Alcotest.(check bool) (w.name ^ " ast equal") true (p = p2))
    Fs_workloads.Workloads.every

let test_parse_literal_program () =
  let src = {|
program demo;

struct node {
  int hdr;
  int vals[4];
  lock l;
}

shared int a[8];
shared struct node nodes[3];
shared lock biglock;
shared float x;

void helper(base, n) {
  for (j = 0; j < n; j++) {
    a[base + j] = a[base + j] + 1;
  }
  return;
}

void main() {
  let mine = pid * 2;
  helper(mine, 2);
  barrier;
  if (pid == 0) {
    lock(biglock);
    x = 2.5;
    nodes[0].vals[pid] = a[0] `max` a[1];
    unlock(biglock);
  } else {
    let t = 0;
    while (t < 3) {
      t = t + 1;
    }
  }
}
|} in
  match Parser.parse_and_validate src with
  | Error errs -> Alcotest.fail (String.concat "; " errs)
  | Ok p ->
    Alcotest.(check string) "name" "demo" p.Fs_ir.Ast.pname;
    Alcotest.(check int) "two funcs" 2 (List.length p.Fs_ir.Ast.funcs);
    Alcotest.(check int) "four globals" 4 (List.length p.Fs_ir.Ast.globals);
    (* and it actually runs *)
    let layout = Fs_layout.Layout.default p ~block:64 in
    let r =
      Tutil.run_to_sink p ~nprocs:4 ~layout ~sink:Fs_trace.Sink.null
    in
    (match Fs_interp.Interp.read_global r "a" 0 with
     | Fs_interp.Value.Vint 1 -> ()
     | v -> Alcotest.failf "a[0] = %a" Fs_interp.Value.pp v)

let test_store_vs_set_disambiguation () =
  let src = {|
program d;
shared int g;
void main() {
  let x = 1;
  x = x + 1;
  g = x;
}
|} in
  let p = Parser.parse src in
  let main = Fs_ir.Ast.find_func p "main" in
  match main.Fs_ir.Ast.body with
  | [ Fs_ir.Ast.Decl _; Fs_ir.Ast.Set ("x", _); Fs_ir.Ast.Store ({ base = "g"; _ }, _) ]
    -> ()
  | _ -> Alcotest.fail "wrong statement kinds"

let test_call_vs_assign_disambiguation () =
  let src = {|
program d;
shared int g;
void f(a) { g = a; return 1; }
void main() {
  let r = 0;
  r = f(3);
  f(4);
}
|} in
  let p = Parser.parse src in
  let main = Fs_ir.Ast.find_func p "main" in
  match main.Fs_ir.Ast.body with
  | [ Fs_ir.Ast.Decl _;
      Fs_ir.Ast.Call { ret = Some "r"; callee = "f"; _ };
      Fs_ir.Ast.Call { ret = None; callee = "f"; _ } ] -> ()
  | _ -> Alcotest.fail "call forms misparsed"

let test_precedence () =
  let src = {|
program d;
shared int g;
void main() {
  g = 1 + 2 * 3;
  g = (1 + 2) * 3;
  g = 1 < 2 && 3 < 4 || 0 == 1;
}
|} in
  let p = Parser.parse src in
  let main = Fs_ir.Ast.find_func p "main" in
  let open Fs_ir.Ast in
  (match main.body with
   | [ Store (_, Binop (Add, Int_lit 1, Binop (Mul, Int_lit 2, Int_lit 3)));
       Store (_, Binop (Mul, Binop (Add, Int_lit 1, Int_lit 2), Int_lit 3));
       Store (_, Binop (Or, Binop (And, _, _), Binop (Eq, _, _))) ] -> ()
   | _ -> Alcotest.fail "precedence wrong")

let test_parse_errors () =
  let bad what src =
    match Parser.parse_result src with
    | Ok _ -> Alcotest.fail ("expected parse error: " ^ what)
    | Error m ->
      Alcotest.(check bool) (what ^ " mentions a line") true
        (Tutil.contains m "line")
  in
  bad "missing program" "shared int x;";
  bad "unclosed block" "program p;\nvoid main() { let x = 1;";
  bad "bad token" "program p;\nvoid main() { let x = 1 ? 2; }";
  bad "mismatched loop var" "program p;\nvoid main() { for (a = 0; b < 3; a++) {} }";
  bad "missing semicolon" "program p;\nvoid main() { barrier }"

let test_comments_and_whitespace () =
  let src = {|
program d; // line comment
/* block
   comment */
shared int g;
void main() { g = 1; /* inline */ g = 2; }
|} in
  match Parser.parse_result src with
  | Ok p -> Alcotest.(check int) "stmts" 2
              (List.length (Fs_ir.Ast.find_func p "main").Fs_ir.Ast.body)
  | Error m -> Alcotest.fail m

let test_float_roundtrip () =
  let open Fs_ir.Dsl in
  let p =
    Fs_ir.Validate.validate_exn
      (program ~name:"f" ~globals:[ ("x", float_t) ]
         [ fn "main" [] [ (v "x") <-- f 3.14159; (v "x") <-- f (-0.5) ] ])
  in
  roundtrip_fixed "floats" p

let test_lexer_tokens () =
  let toks = Lexer.tokenize "a <= 3 && `min` 0x1.8p+1 // c" in
  let kinds = List.map fst toks in
  Alcotest.(check bool) "has BQ" true
    (List.mem (Lexer.BQ_IDENT "min") kinds);
  Alcotest.(check bool) "has hex float" true
    (List.exists (function Lexer.FLOAT f -> f = 3.0 | _ -> false) kinds);
  Alcotest.(check bool) "ends with EOF" true
    (match List.rev kinds with Lexer.EOF :: _ -> true | _ -> false)

let suite =
  [ Alcotest.test_case "workload round-trips" `Quick test_roundtrip_workloads;
    Alcotest.test_case "ast-identical round-trips" `Quick test_roundtrip_is_ast_identical;
    Alcotest.test_case "literal program" `Quick test_parse_literal_program;
    Alcotest.test_case "store vs set" `Quick test_store_vs_set_disambiguation;
    Alcotest.test_case "call vs assign" `Quick test_call_vs_assign_disambiguation;
    Alcotest.test_case "precedence" `Quick test_precedence;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
    Alcotest.test_case "float round-trip" `Quick test_float_roundtrip;
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens ]
