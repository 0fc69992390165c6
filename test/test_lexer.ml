(** Lexer unit tests: token kinds, lexemes, line numbers, string handling,
    comments, casts, operators and PHP tag transitions. *)

open Phplang

let lex src = Lexer.tokenize_significant src

let kinds src =
  lex src
  |> List.filter_map (fun (t : Token.t) ->
         if t.Token.kind = Token.T_EOF then None else Some t.Token.kind)

let lexemes src =
  lex src
  |> List.filter_map (fun (t : Token.t) ->
         if t.Token.kind = Token.T_EOF then None else Some t.Token.lexeme)

let check_kinds name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let got = kinds src |> List.map Token.name in
      let want = List.map Token.name expected in
      Alcotest.(check (list string)) name want got)

let t = Token.T_OPEN_TAG

let cases =
  [
    check_kinds "open tag and variable" "<?php $x;"
      [ t; Token.T_VARIABLE; Token.Punct ];
    check_kinds "superglobal name" "<?php $_GET;"
      [ t; Token.T_VARIABLE; Token.Punct ];
    check_kinds "keywords case-insensitive"
      "<?php IF Else WHILE ECHO Function NULL;"
      [ t; Token.T_IF; Token.T_ELSE; Token.T_WHILE; Token.T_ECHO;
        Token.T_FUNCTION; Token.T_NULL; Token.Punct ];
    check_kinds "die is exit" "<?php die;" [ t; Token.T_EXIT; Token.Punct ];
    check_kinds "identifier vs keyword" "<?php echoes $$a $ 1 $;"
      [ t; Token.T_STRING; Token.Punct; Token.T_VARIABLE; Token.Punct;
        Token.T_LNUMBER; Token.Punct; Token.Punct ];
    check_kinds "integers and floats" "<?php 42 3.14;"
      [ t; Token.T_LNUMBER; Token.T_DNUMBER; Token.Punct ];
    check_kinds "single-quoted string" "<?php 'abc';"
      [ t; Token.T_CONSTANT_STRING; Token.Punct ];
    check_kinds "double-quoted string" "<?php \"a $b c\";"
      [ t; Token.T_ENCAPSED_STRING; Token.Punct ];
    check_kinds "object operator" "<?php $a->b;"
      [ t; Token.T_VARIABLE; Token.T_OBJECT_OPERATOR; Token.T_STRING; Token.Punct ];
    check_kinds "double colon" "<?php A::b;"
      [ t; Token.T_STRING; Token.T_DOUBLE_COLON; Token.T_STRING; Token.Punct ];
    check_kinds "comparison operators"
      "<?php 1 == 2 === 3 != 4 !== 5 ==6!=7===8!==9 !=! =!= =;"
      [ t; Token.T_LNUMBER; Token.T_IS_EQUAL; Token.T_LNUMBER;
        Token.T_IS_IDENTICAL; Token.T_LNUMBER; Token.T_IS_NOT_EQUAL;
        Token.T_LNUMBER; Token.T_IS_NOT_IDENTICAL; Token.T_LNUMBER;
        Token.T_IS_EQUAL; Token.T_LNUMBER; Token.T_IS_NOT_EQUAL;
        Token.T_LNUMBER; Token.T_IS_IDENTICAL; Token.T_LNUMBER;
        Token.T_IS_NOT_IDENTICAL; Token.T_LNUMBER; Token.T_IS_NOT_EQUAL;
        Token.Punct; Token.Punct; Token.T_IS_NOT_EQUAL; Token.Punct;
        Token.Punct ];
    check_kinds "compound assignment" "<?php $a .= $b;"
      [ t; Token.T_VARIABLE; Token.T_CONCAT_EQUAL; Token.T_VARIABLE; Token.Punct ];
    check_kinds "increment" "<?php $i++;"
      [ t; Token.T_VARIABLE; Token.T_INC; Token.Punct ];
    check_kinds "boolean operators" "<?php $a && $b || $c;"
      [ t; Token.T_VARIABLE; Token.T_BOOLEAN_AND; Token.T_VARIABLE;
        Token.T_BOOLEAN_OR; Token.T_VARIABLE; Token.Punct ];
    check_kinds "logical keywords" "<?php $a and $b or $c;"
      [ t; Token.T_VARIABLE; Token.T_LOGICAL_AND; Token.T_VARIABLE;
        Token.T_LOGICAL_OR; Token.T_VARIABLE; Token.Punct ];
    check_kinds "int cast" "<?php (int) $x;"
      [ t; Token.T_INT_CAST; Token.T_VARIABLE; Token.Punct ];
    check_kinds "cast with inner spaces" "<?php ( integer ) $x;( int )$y;(\tint\t)$z;"
      [ t; Token.T_INT_CAST; Token.T_VARIABLE; Token.Punct; Token.T_INT_CAST;
        Token.T_VARIABLE; Token.Punct; Token.T_INT_CAST; Token.T_VARIABLE;
        Token.Punct ];
    check_kinds "parens not cast" "<?php (intdiv) ;(intx);( int\n)$x;"
      [ t; Token.Punct; Token.T_STRING; Token.Punct; Token.Punct;
        Token.Punct; Token.T_STRING; Token.Punct; Token.Punct;
        Token.Punct; Token.T_STRING; Token.Punct; Token.T_VARIABLE;
        Token.Punct ];
    check_kinds "double arrow" "<?php array('a' => 1);"
      [ t; Token.T_ARRAY; Token.Punct; Token.T_CONSTANT_STRING; Token.T_DOUBLE_ARROW;
        Token.T_LNUMBER; Token.Punct; Token.Punct ];
    check_kinds "close tag to inline html"
      "<?php $x; ?>hello<?PHP $y ?? $z ?: $w?>a<?Php $v = <<<EOT\nx\nEOT;\n\
       $b = 1 < < 2 <<= 3;"
      [ t; Token.T_VARIABLE; Token.Punct; Token.T_CLOSE_TAG; Token.T_INLINE_HTML;
        t; Token.T_VARIABLE; Token.T_COALESCE; Token.T_VARIABLE; Token.Punct;
        Token.Punct; Token.T_VARIABLE; Token.T_CLOSE_TAG; Token.T_INLINE_HTML;
        t; Token.T_VARIABLE; Token.Punct; Token.T_HEREDOC; Token.Punct;
        Token.T_VARIABLE; Token.Punct; Token.T_LNUMBER; Token.Punct;
        Token.Punct; Token.T_LNUMBER; Token.Punct; Token.T_IS_SMALLER_OR_EQUAL;
        Token.T_LNUMBER; Token.Punct ];
  ]

let number_cases =
  [
    Alcotest.test_case "hex literal is one integer token" `Quick (fun () ->
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "0x1F"; ";" ]
          (lexemes "<?php 0x1F;");
        Alcotest.(check (list string)) "kinds"
          [ "T_OPEN_TAG"; "T_LNUMBER"; "PUNCT" ]
          (kinds "<?php 0x1F;" |> List.map Token.name));
    Alcotest.test_case "uppercase hex prefix" `Quick (fun () ->
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "0Xff"; ";" ]
          (lexemes "<?php 0Xff;"));
    Alcotest.test_case "binary literal" `Quick (fun () ->
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "0b1011"; ";" ]
          (lexemes "<?php 0b1011;"));
    Alcotest.test_case "octal literal stays one token" `Quick (fun () ->
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "0755"; ";" ]
          (lexemes "<?php 0755;"));
    Alcotest.test_case "bare 0x is integer then identifier" `Quick (fun () ->
        Alcotest.(check (list string)) "kinds"
          [ "T_OPEN_TAG"; "T_LNUMBER"; "T_STRING"; "PUNCT" ]
          (kinds "<?php 0xg;" |> List.map Token.name));
    Alcotest.test_case "exponent float" `Quick (fun () ->
        Alcotest.(check (list string)) "kinds"
          [ "T_OPEN_TAG"; "T_DNUMBER"; "PUNCT" ]
          (kinds "<?php 1e3;" |> List.map Token.name);
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "1e3"; ";" ]
          (lexemes "<?php 1e3;"));
    Alcotest.test_case "signed exponent with fraction" `Quick (fun () ->
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "1.5E-2"; ";" ]
          (lexemes "<?php 1.5E-2;");
        Alcotest.(check (list string)) "plus sign" [ "<?php"; "2e+10"; ";" ]
          (lexemes "<?php 2e+10;"));
    Alcotest.test_case "trailing e is not an exponent" `Quick (fun () ->
        Alcotest.(check (list string)) "kinds"
          [ "T_OPEN_TAG"; "T_LNUMBER"; "T_STRING"; "PUNCT" ]
          (kinds "<?php 5en;" |> List.map Token.name));
    Alcotest.test_case "plain integers and floats still lex" `Quick (fun () ->
        Alcotest.(check (list string)) "kinds"
          [ "T_OPEN_TAG"; "T_LNUMBER"; "T_DNUMBER"; "PUNCT" ]
          (kinds "<?php 42 3.14;" |> List.map Token.name));
  ]

let line_cases =
  [
    Alcotest.test_case "line numbers track newlines" `Quick (fun () ->
        let tokens = lex "<?php\n$a;\n\n$b;" in
        let var_lines =
          List.filter_map
            (fun (tok : Token.t) ->
              if tok.Token.kind = Token.T_VARIABLE then Some tok.Token.line
              else None)
            tokens
        in
        Alcotest.(check (list int)) "lines" [ 2; 4 ] var_lines);
    Alcotest.test_case "backslash-newline in single-quoted string keeps lines"
      `Quick (fun () ->
        (* regression: the escape branch consumes two characters; the
           consumed newline must still bump the line counter *)
        let tokens = lex "<?php $a = 'x\\\ny';\n$b;" in
        let b_line =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.lexeme = "$b" then Some tok.Token.line else None)
            tokens
        in
        Alcotest.(check (option int)) "line of $b" (Some 3) b_line);
    Alcotest.test_case "backslash-newline in double-quoted string keeps lines"
      `Quick (fun () ->
        let tokens = lex "<?php $a = \"x\\\ny\";\n$b;" in
        let b_line =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.lexeme = "$b" then Some tok.Token.line else None)
            tokens
        in
        Alcotest.(check (option int)) "line of $b" (Some 3) b_line);
    Alcotest.test_case "lines inside strings" `Quick (fun () ->
        let tokens = lex "<?php $a = 'x\ny';\n$b;" in
        let b_line =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.lexeme = "$b" then Some tok.Token.line else None)
            tokens
        in
        Alcotest.(check (option int)) "line of $b" (Some 3) b_line);
    Alcotest.test_case "comments removed by significant" `Quick (fun () ->
        let got = lexemes "<?php // line\n/* block */ # hash\n$x;" in
        Alcotest.(check (list string)) "tokens" [ "<?php"; "$x"; ";" ] got);
    Alcotest.test_case "doc comment kind" `Quick (fun () ->
        let all = Lexer.tokenize "<?php /** doc */ $x;" in
        let has_doc =
          List.exists
            (fun (tok : Token.t) -> tok.Token.kind = Token.T_DOC_COMMENT)
            all
        in
        Alcotest.(check bool) "has doc comment" true has_doc);
    Alcotest.test_case "escaped quote in string" `Quick (fun () ->
        let got = lexemes "<?php 'it\\'s';" in
        Alcotest.(check (list string)) "tokens" [ "<?php"; "'it\\'s'"; ";" ] got);
    Alcotest.test_case "escaped dquote in string" `Quick (fun () ->
        let got = lexemes "<?php \"a\\\"b\";" in
        Alcotest.(check (list string)) "tokens" [ "<?php"; "\"a\\\"b\""; ";" ] got);
    Alcotest.test_case "unterminated string raises" `Quick (fun () ->
        Alcotest.check_raises "error"
          (Lexer.Error ("unterminated single-quoted string", 1))
          (fun () -> ignore (lex "<?php 'oops")));
    Alcotest.test_case "unterminated block comment raises" `Quick (fun () ->
        Alcotest.check_raises "error"
          (Lexer.Error ("unterminated block comment", 1))
          (fun () -> ignore (lex "<?php /* oops")));
    Alcotest.test_case "unexpected char raises" `Quick (fun () ->
        try
          ignore (lex "<?php `cmd`;");
          Alcotest.fail "expected Lexer.Error"
        with Lexer.Error (_, _) -> ());
    Alcotest.test_case "html before open tag" `Quick (fun () ->
        let tokens = lex "<html><?php $x;" in
        match tokens with
        | first :: _ ->
            Alcotest.(check string) "first kind" "T_INLINE_HTML"
              (Token.name first.Token.kind)
        | [] -> Alcotest.fail "no tokens");
    Alcotest.test_case "token_name mirrors PHP" `Quick (fun () ->
        Alcotest.(check string) "variable" "T_VARIABLE"
          (Token.name Token.T_VARIABLE);
        Alcotest.(check string) "paamayim"
          "T_DOUBLE_COLON" (Token.name Token.T_DOUBLE_COLON);
        Alcotest.(check string) "constant string" "T_CONSTANT_ENCAPSED_STRING"
          (Token.name Token.T_CONSTANT_STRING));
    Alcotest.test_case "keyword lookup" `Quick (fun () ->
        Alcotest.(check bool) "foreach" true
          (Token.keyword_kind "FOREACH" = Some Token.T_FOREACH);
        Alcotest.(check bool) "mixed case" true
          (Token.keyword_kind "Function" = Some Token.T_FUNCTION
          && Token.keyword_kind "NULL" = Some Token.T_NULL
          && Token.keyword_kind "Die" = Some Token.T_EXIT);
        Alcotest.(check bool) "not a keyword" true
          (Token.keyword_kind "foo" = None
          && Token.keyword_kind "echo_" = None
          && Token.keyword_kind "" = None);
        Alcotest.(check (list string)) "keyword lexemes keep their case"
          [ "<?php"; "ECHO"; "Function"; "NULL"; ";" ]
          (lexemes "<?php ECHO Function NULL;"));
    Alcotest.test_case "close tag eats one newline" `Quick (fun () ->
        let tokens = lex "<?php ?>\nhtml" in
        let html =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.kind = Token.T_INLINE_HTML then Some tok.Token.lexeme
              else None)
            tokens
        in
        Alcotest.(check (option string)) "html content" (Some "html") html;
        Alcotest.(check (list string)) "uppercase open tag, ?> against ??"
          [ "<?php"; "$x"; "??"; "$y"; "?>"; "a"; "<?php"; "$z" ]
          (lexemes "<?PHP $x ?? $y ?>a<?Php $z"));
    Alcotest.test_case "recurring lexemes are interned" `Quick (fun () ->
        (* every repeat of an ident/keyword/variable/whitespace lexeme must
           return the retained first occurrence: physical equality within a
           file, and the lexer.intern.hits counter records each avoided
           allocation *)
        let src = "<?php echo $x; echo $x; echo $x;" in
        Obs.set_enabled true;
        Obs.reset ();
        let tokens = Lexer.tokenize src in
        let snap = Obs.snapshot () in
        Obs.set_enabled false;
        let hits =
          match List.assoc_opt "lexer.intern.hits" snap.Obs.sn_counters with
          | Some n -> n
          | None -> 0
        in
        (* 2 extra "echo", 2 "$x", repeated single-space whitespace: >= 4 *)
        Alcotest.(check bool) "intern hits recorded" true (hits >= 4);
        let lexemes_of kind =
          List.filter_map
            (fun (t : Token.t) ->
              if t.Token.kind = kind then Some t.Token.lexeme else None)
            tokens
        in
        (match lexemes_of Token.T_ECHO with
        | first :: rest ->
            List.iter
              (fun l ->
                Alcotest.(check bool) "echo shares one allocation" true
                  (l == first))
              rest
        | [] -> Alcotest.fail "no echo tokens");
        match lexemes_of Token.T_VARIABLE with
        | first :: rest ->
            List.iter
              (fun l ->
                Alcotest.(check bool) "$x shares one allocation" true
                  (l == first))
              rest
        | [] -> Alcotest.fail "no variable tokens");
  ]

(* heredoc/nowdoc, <?= and ?? — the PHP front-end gap regressions *)
let frontend_cases =
  [
    check_kinds "null coalescing operator" "<?php $a ?? $b;"
      [ t; Token.T_VARIABLE; Token.T_COALESCE; Token.T_VARIABLE; Token.Punct ];
    check_kinds "ternary hook is still punct" "<?php $a ? $b : $c;"
      [ t; Token.T_VARIABLE; Token.Punct; Token.T_VARIABLE; Token.Punct;
        Token.T_VARIABLE; Token.Punct ];
    check_kinds "short echo tag" "<?= $x; ?>"
      [ Token.T_OPEN_TAG_WITH_ECHO; Token.T_VARIABLE; Token.Punct;
        Token.T_CLOSE_TAG ];
    Alcotest.test_case "heredoc lexeme is the raw body" `Quick (fun () ->
        let tokens = lex "<?php $a = <<<EOT\nsay \"hi\" $name\nEOT;\n" in
        let body =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.kind = Token.T_HEREDOC then Some tok.Token.lexeme
              else None)
            tokens
        in
        Alcotest.(check (option string)) "body" (Some "say \"hi\" $name") body);
    Alcotest.test_case "double-quoted label is a heredoc" `Quick (fun () ->
        let tokens = lex "<?php $a = <<<\"EOT\"\nbody\nEOT;\n" in
        let kinds =
          List.filter
            (fun (tok : Token.t) -> tok.Token.kind = Token.T_HEREDOC)
            tokens
        in
        Alcotest.(check int) "one heredoc" 1 (List.length kinds));
    Alcotest.test_case "nowdoc keeps $ verbatim" `Quick (fun () ->
        let tokens = lex "<?php $a = <<<'EOT'\nraw $x body\nEOT;\n" in
        let body =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.kind = Token.T_NOWDOC then Some tok.Token.lexeme
              else None)
            tokens
        in
        Alcotest.(check (option string)) "body" (Some "raw $x body") body);
    Alcotest.test_case "heredoc advances line numbers" `Quick (fun () ->
        let tokens = lex "<?php $a = <<<EOT\nl1\nl2\nEOT;\n$b;" in
        let b_line =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.lexeme = "$b" then Some tok.Token.line else None)
            tokens
        in
        Alcotest.(check (option int)) "line of $b" (Some 5) b_line);
    Alcotest.test_case "unterminated heredoc raises" `Quick (fun () ->
        try
          ignore (lex "<?php $a = <<<EOT\nno close\n");
          Alcotest.fail "expected Lexer.Error"
        with Lexer.Error (_, _) -> ());
  ]

(* Golden oracle: a digest of (kind name, lexeme, line) over the full token
   stream of every file of both generated corpus versions.  The constant was
   computed once and must never move: any lexer change that alters a single
   token's kind, text or line anywhere in the corpus shows up here. *)
let corpus_token_digest () =
  let per_file = Buffer.create 65536 in
  List.iter
    (fun version ->
      List.iter
        (fun (p : Corpus.Catalog.plugin_output) ->
          List.iter
            (fun (f : Project.file) ->
              let buf = Buffer.create 4096 in
              (match Lexer.tokenize f.Project.source with
              | toks ->
                  List.iter
                    (fun (tok : Token.t) ->
                      Printf.bprintf buf "%s %S %d\n" (Token.name tok.Token.kind)
                        tok.Token.lexeme tok.Token.line)
                    toks
              | exception Lexer.Error (msg, line) ->
                  Printf.bprintf buf "error %S %d\n" msg line);
              Printf.bprintf per_file "%s %s\n" f.Project.path
                (Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents buf))))
            p.Corpus.Catalog.po_project.Project.files)
        (Corpus.generate version).Corpus.plugins)
    [ Corpus.Plan.V2012; Corpus.Plan.V2014 ];
  Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents per_file))

let golden_corpus_digest = "ea85267af91ec845fda495e4715a721d"

let golden_cases =
  [
    Alcotest.test_case "corpus token stream digest is unchanged" `Quick
      (fun () ->
        Alcotest.(check string) "digest" golden_corpus_digest
          (corpus_token_digest ()));
  ]

let () =
  Alcotest.run "lexer"
    [ ("token kinds", cases);
      ("numeric literals", number_cases);
      ("positions and edge cases", line_cases);
      ("front-end gaps (heredoc, <?=, ??)", frontend_cases);
      ("golden token stream", golden_cases) ]
