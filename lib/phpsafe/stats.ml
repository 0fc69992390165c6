(** Analysis resources beyond the findings themselves (paper §III.D: the
    results-processing stage exposes "the variables (vulnerable variables,
    output variables and all the other variables), functions, PHP files
    included, tokens (the complete AST) and debug information" to help
    practitioners review and fix code). *)

module S = Set.Make (String)
module A = Phplang.Ast

type t = {
  st_files : int;
  st_tokens : int;             (** significant tokens over all files *)
  st_loc : int;
  st_functions : int;          (** free functions *)
  st_classes : int;
  st_methods : int;
  st_variables : int;          (** distinct variable names *)
  st_superglobal_reads : int;  (** occurrences of configured input vectors *)
  st_echo_sinks : int;         (** echo/print output points *)
  st_includes : int;           (** include/require expressions *)
}

let empty =
  { st_files = 0; st_tokens = 0; st_loc = 0; st_functions = 0; st_classes = 0;
    st_methods = 0; st_variables = 0; st_superglobal_reads = 0;
    st_echo_sinks = 0; st_includes = 0 }

type acc = {
  mutable functions : int;
  mutable classes : int;
  mutable methods : int;
  mutable vars : S.t;
  mutable sg_reads : int;
  mutable echoes : int;
  mutable includes : int;
}

let superglobals =
  [ "$_GET"; "$_POST"; "$_COOKIE"; "$_REQUEST"; "$_SERVER"; "$_FILES" ]

let rec visit_expr acc (e : A.expr) =
  (match e.A.e with
  | A.Var v ->
      acc.vars <- S.add v acc.vars;
      if List.mem v superglobals then acc.sg_reads <- acc.sg_reads + 1
  | A.PrintE _ -> acc.echoes <- acc.echoes + 1
  | A.IncludeE _ -> acc.includes <- acc.includes + 1
  | A.Closure c -> List.iter (visit_stmt acc) c.A.cl_body
  | _ -> ());
  iter_sub_exprs acc e

and iter_sub_exprs acc (e : A.expr) =
  let ve = visit_expr acc in
  match e.A.e with
  | A.Assign (l, r) | A.AssignRef (l, r) | A.OpAssign (_, l, r) | A.Bin (_, l, r)
    ->
      ve l;
      ve r
  | A.Un (_, x) | A.CastE (_, x) | A.EmptyE x | A.PrintE x | A.Prop (x, _)
  | A.IncludeE (_, x) ->
      ve x
  | A.Ternary (c, t, e2) ->
      ve c;
      Option.iter ve t;
      ve e2
  | A.ArrayGet (b, i) ->
      ve b;
      Option.iter ve i
  | A.ArrayLit items ->
      List.iter
        (fun (k, v) ->
          Option.iter ve k;
          ve v)
        items
  | A.Call (_, args) | A.New (_, args) | A.StaticCall (_, _, args) ->
      List.iter ve args
  | A.MethodCall (o, _, args) ->
      ve o;
      List.iter ve args
  | A.Isset es -> List.iter ve es
  | A.Exit x -> Option.iter ve x
  | A.Interp parts ->
      List.iter (function A.IExpr x -> ve x | A.ILit _ -> ()) parts
  | A.ListAssign (slots, rhs) ->
      List.iter (Option.iter ve) slots;
      ve rhs
  | A.Null | A.True | A.False | A.Int _ | A.Float _ | A.Str _ | A.Var _
  | A.StaticProp _ | A.ClassConst _ | A.Const _ | A.Closure _ ->
      ()

and visit_stmt acc (s : A.stmt) =
  match s.A.s with
  | A.Expr e | A.Throw e -> visit_expr acc e
  | A.Echo es ->
      acc.echoes <- acc.echoes + 1;
      List.iter (visit_expr acc) es
  | A.If (branches, els) ->
      List.iter
        (fun (c, b) ->
          visit_expr acc c;
          List.iter (visit_stmt acc) b)
        branches;
      Option.iter (List.iter (visit_stmt acc)) els
  | A.While (c, b) ->
      visit_expr acc c;
      List.iter (visit_stmt acc) b
  | A.DoWhile (b, c) ->
      List.iter (visit_stmt acc) b;
      visit_expr acc c
  | A.For (i, c, u, b) ->
      List.iter (visit_expr acc) i;
      List.iter (visit_expr acc) c;
      List.iter (visit_expr acc) u;
      List.iter (visit_stmt acc) b
  | A.Foreach (subject, binding, b) ->
      visit_expr acc subject;
      (match binding with
      | A.ForeachValue v -> visit_expr acc v
      | A.ForeachKeyValue (k, v) ->
          visit_expr acc k;
          visit_expr acc v);
      List.iter (visit_stmt acc) b
  | A.Switch (subject, cases) ->
      visit_expr acc subject;
      List.iter (fun (c : A.case) -> List.iter (visit_stmt acc) c.A.case_body) cases
  | A.Return e -> Option.iter (visit_expr acc) e
  | A.Global names -> List.iter (fun v -> acc.vars <- S.add v acc.vars) names
  | A.StaticVar vars ->
      List.iter
        (fun (v, init) ->
          acc.vars <- S.add v acc.vars;
          Option.iter (visit_expr acc) init)
        vars
  | A.Unset es -> List.iter (visit_expr acc) es
  | A.Block b -> List.iter (visit_stmt acc) b
  | A.FuncDef f ->
      acc.functions <- acc.functions + 1;
      List.iter
        (fun (p : A.param) -> acc.vars <- S.add p.A.p_name acc.vars)
        f.A.f_params;
      List.iter (visit_stmt acc) f.A.f_body
  | A.ClassDef c ->
      acc.classes <- acc.classes + 1;
      acc.methods <- acc.methods + List.length c.A.c_methods;
      List.iter
        (fun (m : A.method_def) -> List.iter (visit_stmt acc) m.A.m_func.A.f_body)
        c.A.c_methods
  | A.TryCatch (b, catches) ->
      List.iter (visit_stmt acc) b;
      List.iter
        (fun (c : A.catch) -> List.iter (visit_stmt acc) c.A.catch_body)
        catches
  | A.InlineHtml _ | A.Nop | A.Break | A.Continue -> ()

(** Gather the §III.D resource statistics over a whole project.  Each file
    is lexed once; its significant tokens are counted and then parsed.
    Files that fail to lex contribute their LOC count only, files that fail
    to parse (or exceed the nesting budget) their token and LOC counts. *)
let of_project (project : Phplang.Project.t) : t =
  let acc =
    { functions = 0; classes = 0; methods = 0; vars = S.empty; sg_reads = 0;
      echoes = 0; includes = 0 }
  in
  let tokens = ref 0 and loc = ref 0 in
  List.iter
    (fun (f : Phplang.Project.file) ->
      loc := !loc + Phplang.Loc.count f.Phplang.Project.source;
      match Phplang.Lexer.tokenize_significant f.Phplang.Project.source with
      | exception Phplang.Lexer.Error _ -> ()
      | toks -> (
          tokens := !tokens + List.length toks;
          match Phplang.Parser.parse_tokens ~file:f.Phplang.Project.path toks with
          | prog -> List.iter (visit_stmt acc) prog
          | exception
              ( Phplang.Parser.Parse_error _ | Phplang.Parser.Depth_exceeded _ )
            ->
              ()))
    project.Phplang.Project.files;
  {
    st_files = Phplang.Project.file_count project;
    st_tokens = !tokens;
    st_loc = !loc;
    st_functions = acc.functions;
    st_classes = acc.classes;
    st_methods = acc.methods;
    st_variables = S.cardinal acc.vars;
    st_superglobal_reads = acc.sg_reads;
    st_echo_sinks = acc.echoes;
    st_includes = acc.includes;
  }

let pp ppf t =
  Format.fprintf ppf
    "files=%d tokens=%d loc=%d functions=%d classes=%d methods=%d \
     variables=%d superglobal-reads=%d echo-sinks=%d includes=%d"
    t.st_files t.st_tokens t.st_loc t.st_functions t.st_classes t.st_methods
    t.st_variables t.st_superglobal_reads t.st_echo_sinks t.st_includes
