(** PHP token set, modelled on the identifiers returned by PHP's
    [token_get_all] / [token_name] (the API phpSAFE is built on, §III.B of
    the paper).  Single-character punctuation is carried by {!Punct} with the
    raw character, mirroring how [token_get_all] returns bare strings for
    code semantics such as [";"]. *)

type kind =
  | T_OPEN_TAG            (* <?php *)
  | T_OPEN_TAG_WITH_ECHO  (* <?= *)
  | T_CLOSE_TAG           (* ?> *)
  | T_INLINE_HTML         (* raw HTML between tags *)
  | T_VARIABLE            (* $foo *)
  | T_STRING              (* identifier: function/class/const name *)
  | T_LNUMBER             (* integer literal *)
  | T_DNUMBER             (* float literal *)
  | T_CONSTANT_STRING     (* 'single quoted' (T_CONSTANT_ENCAPSED_STRING) *)
  | T_ENCAPSED_STRING     (* "double quoted with $interpolation" *)
  | T_HEREDOC             (* <<<EOT body (raw, interpolated) *)
  | T_NOWDOC              (* <<<'EOT' body (raw, no interpolation) *)
  | T_IF
  | T_ELSE
  | T_ELSEIF
  | T_WHILE
  | T_DO
  | T_FOR
  | T_FOREACH
  | T_AS
  | T_SWITCH
  | T_CASE
  | T_DEFAULT
  | T_BREAK
  | T_CONTINUE
  | T_RETURN
  | T_FUNCTION
  | T_USE
  | T_CLASS
  | T_INTERFACE
  | T_EXTENDS
  | T_IMPLEMENTS
  | T_NEW
  | T_PUBLIC
  | T_PRIVATE
  | T_PROTECTED
  | T_STATIC
  | T_CONST
  | T_VAR
  | T_GLOBAL
  | T_ECHO
  | T_PRINT
  | T_UNSET
  | T_ISSET
  | T_EMPTY
  | T_EXIT                (* exit / die *)
  | T_INCLUDE
  | T_INCLUDE_ONCE
  | T_REQUIRE
  | T_REQUIRE_ONCE
  | T_LIST
  | T_ARRAY
  | T_TRY
  | T_CATCH
  | T_THROW
  | T_OBJECT_OPERATOR     (* -> *)
  | T_DOUBLE_COLON        (* :: (T_PAAMAYIM_NEKUDOTAYIM) *)
  | T_DOUBLE_ARROW        (* => *)
  | T_BOOLEAN_AND         (* && *)
  | T_BOOLEAN_OR          (* || *)
  | T_LOGICAL_AND         (* and *)
  | T_LOGICAL_OR          (* or *)
  | T_LOGICAL_XOR         (* xor *)
  | T_IS_EQUAL            (* == *)
  | T_IS_NOT_EQUAL        (* != *)
  | T_IS_IDENTICAL        (* === *)
  | T_IS_NOT_IDENTICAL    (* !== *)
  | T_IS_SMALLER_OR_EQUAL (* <= *)
  | T_IS_GREATER_OR_EQUAL (* >= *)
  | T_PLUS_EQUAL          (* += *)
  | T_MINUS_EQUAL         (* -= *)
  | T_MUL_EQUAL           (* *= *)
  | T_DIV_EQUAL           (* /= *)
  | T_CONCAT_EQUAL        (* .= *)
  | T_MOD_EQUAL           (* %= *)
  | T_INC                 (* ++ *)
  | T_DEC                 (* -- *)
  | T_COALESCE            (* ?? *)
  | T_INT_CAST            (* (int) / (integer) *)
  | T_FLOAT_CAST          (* (float) / (double) *)
  | T_STRING_CAST         (* (string) *)
  | T_ARRAY_CAST          (* (array) *)
  | T_BOOL_CAST           (* (bool) / (boolean) *)
  | T_NULL
  | T_TRUE
  | T_FALSE
  | T_COMMENT             (* // or /* ... *‍/ or # *)
  | T_DOC_COMMENT         (* /** ... *‍/ *)
  | T_WHITESPACE
  | Punct                 (* one of  ; , ( ) { } [ ] = + - * / % . < > ! ? : & @ | ^ ~ $ *)
  | T_EOF

type t = {
  kind : kind;
  lexeme : string;  (** raw source text of the token *)
  line : int;       (** 1-based line number, as in [token_get_all] *)
}

let make kind lexeme line = { kind; lexeme; line }

(** A statically allocated token for seeding token arrays.  [Array.make n x]
    with [n] above the minor-heap block limit first runs a minor collection
    when [x] is still in the minor heap, to promote it; a static seed never
    is. *)
let placeholder = { kind = T_EOF; lexeme = ""; line = 0 }

(** [Array.of_list], seeded with {!placeholder}: [Array.of_list] seeds with
    the list's first token, which a fresh lexer run has just allocated. *)
let array_of_list tokens =
  let a = Array.make (List.length tokens) placeholder in
  List.iteri (fun i t -> Array.unsafe_set a i t) tokens;
  a

(** [token_name] equivalent: the PHP-style identifier of a token kind. *)
let name = function
  | T_OPEN_TAG -> "T_OPEN_TAG"
  | T_OPEN_TAG_WITH_ECHO -> "T_OPEN_TAG_WITH_ECHO"
  | T_CLOSE_TAG -> "T_CLOSE_TAG"
  | T_INLINE_HTML -> "T_INLINE_HTML"
  | T_VARIABLE -> "T_VARIABLE"
  | T_STRING -> "T_STRING"
  | T_LNUMBER -> "T_LNUMBER"
  | T_DNUMBER -> "T_DNUMBER"
  | T_CONSTANT_STRING -> "T_CONSTANT_ENCAPSED_STRING"
  | T_ENCAPSED_STRING -> "T_ENCAPSED_STRING"
  | T_HEREDOC -> "T_HEREDOC"
  | T_NOWDOC -> "T_NOWDOC"
  | T_IF -> "T_IF"
  | T_ELSE -> "T_ELSE"
  | T_ELSEIF -> "T_ELSEIF"
  | T_WHILE -> "T_WHILE"
  | T_DO -> "T_DO"
  | T_FOR -> "T_FOR"
  | T_FOREACH -> "T_FOREACH"
  | T_AS -> "T_AS"
  | T_SWITCH -> "T_SWITCH"
  | T_CASE -> "T_CASE"
  | T_DEFAULT -> "T_DEFAULT"
  | T_BREAK -> "T_BREAK"
  | T_CONTINUE -> "T_CONTINUE"
  | T_RETURN -> "T_RETURN"
  | T_FUNCTION -> "T_FUNCTION"
  | T_USE -> "T_USE"
  | T_CLASS -> "T_CLASS"
  | T_INTERFACE -> "T_INTERFACE"
  | T_EXTENDS -> "T_EXTENDS"
  | T_IMPLEMENTS -> "T_IMPLEMENTS"
  | T_NEW -> "T_NEW"
  | T_PUBLIC -> "T_PUBLIC"
  | T_PRIVATE -> "T_PRIVATE"
  | T_PROTECTED -> "T_PROTECTED"
  | T_STATIC -> "T_STATIC"
  | T_CONST -> "T_CONST"
  | T_VAR -> "T_VAR"
  | T_GLOBAL -> "T_GLOBAL"
  | T_ECHO -> "T_ECHO"
  | T_PRINT -> "T_PRINT"
  | T_UNSET -> "T_UNSET"
  | T_ISSET -> "T_ISSET"
  | T_EMPTY -> "T_EMPTY"
  | T_EXIT -> "T_EXIT"
  | T_INCLUDE -> "T_INCLUDE"
  | T_INCLUDE_ONCE -> "T_INCLUDE_ONCE"
  | T_REQUIRE -> "T_REQUIRE"
  | T_REQUIRE_ONCE -> "T_REQUIRE_ONCE"
  | T_LIST -> "T_LIST"
  | T_ARRAY -> "T_ARRAY"
  | T_TRY -> "T_TRY"
  | T_CATCH -> "T_CATCH"
  | T_THROW -> "T_THROW"
  | T_OBJECT_OPERATOR -> "T_OBJECT_OPERATOR"
  | T_DOUBLE_COLON -> "T_DOUBLE_COLON"
  | T_DOUBLE_ARROW -> "T_DOUBLE_ARROW"
  | T_BOOLEAN_AND -> "T_BOOLEAN_AND"
  | T_BOOLEAN_OR -> "T_BOOLEAN_OR"
  | T_LOGICAL_AND -> "T_LOGICAL_AND"
  | T_LOGICAL_OR -> "T_LOGICAL_OR"
  | T_LOGICAL_XOR -> "T_LOGICAL_XOR"
  | T_IS_EQUAL -> "T_IS_EQUAL"
  | T_IS_NOT_EQUAL -> "T_IS_NOT_EQUAL"
  | T_IS_IDENTICAL -> "T_IS_IDENTICAL"
  | T_IS_NOT_IDENTICAL -> "T_IS_NOT_IDENTICAL"
  | T_IS_SMALLER_OR_EQUAL -> "T_IS_SMALLER_OR_EQUAL"
  | T_IS_GREATER_OR_EQUAL -> "T_IS_GREATER_OR_EQUAL"
  | T_PLUS_EQUAL -> "T_PLUS_EQUAL"
  | T_MINUS_EQUAL -> "T_MINUS_EQUAL"
  | T_MUL_EQUAL -> "T_MUL_EQUAL"
  | T_DIV_EQUAL -> "T_DIV_EQUAL"
  | T_CONCAT_EQUAL -> "T_CONCAT_EQUAL"
  | T_MOD_EQUAL -> "T_MOD_EQUAL"
  | T_INC -> "T_INC"
  | T_DEC -> "T_DEC"
  | T_COALESCE -> "T_COALESCE"
  | T_INT_CAST -> "T_INT_CAST"
  | T_FLOAT_CAST -> "T_DOUBLE_CAST"
  | T_STRING_CAST -> "T_STRING_CAST"
  | T_ARRAY_CAST -> "T_ARRAY_CAST"
  | T_BOOL_CAST -> "T_BOOL_CAST"
  | T_NULL -> "T_NULL"
  | T_TRUE -> "T_TRUE"
  | T_FALSE -> "T_FALSE"
  | T_COMMENT -> "T_COMMENT"
  | T_DOC_COMMENT -> "T_DOC_COMMENT"
  | T_WHITESPACE -> "T_WHITESPACE"
  | Punct -> "PUNCT"
  | T_EOF -> "T_EOF"

(** Keyword table used by the lexer; PHP keywords are case-insensitive. *)
let keywords : (string * kind) list =
  [ ("if", T_IF); ("else", T_ELSE); ("elseif", T_ELSEIF); ("while", T_WHILE);
    ("do", T_DO); ("for", T_FOR); ("foreach", T_FOREACH); ("as", T_AS);
    ("switch", T_SWITCH); ("case", T_CASE); ("default", T_DEFAULT);
    ("break", T_BREAK); ("continue", T_CONTINUE); ("return", T_RETURN);
    ("function", T_FUNCTION); ("use", T_USE); ("class", T_CLASS);
    ("interface", T_INTERFACE); ("extends", T_EXTENDS);
    ("implements", T_IMPLEMENTS); ("new", T_NEW); ("public", T_PUBLIC);
    ("private", T_PRIVATE); ("protected", T_PROTECTED); ("static", T_STATIC);
    ("const", T_CONST); ("var", T_VAR); ("global", T_GLOBAL);
    ("echo", T_ECHO); ("print", T_PRINT); ("unset", T_UNSET);
    ("isset", T_ISSET); ("empty", T_EMPTY); ("exit", T_EXIT); ("die", T_EXIT);
    ("include", T_INCLUDE); ("include_once", T_INCLUDE_ONCE);
    ("require", T_REQUIRE); ("require_once", T_REQUIRE_ONCE);
    ("list", T_LIST); ("array", T_ARRAY); ("try", T_TRY); ("catch", T_CATCH);
    ("throw", T_THROW); ("and", T_LOGICAL_AND); ("or", T_LOGICAL_OR);
    ("xor", T_LOGICAL_XOR); ("null", T_NULL); ("true", T_TRUE);
    ("false", T_FALSE) ]

(* [keywords] bucketed by (length, first letter), built once.  Each bucket
   holds at most a few candidates, paired with a preallocated [Some kind]. *)
let max_keyword_len = 12

let keyword_buckets : (string * kind option) list array =
  let b = Array.make ((max_keyword_len + 1) * 26) [] in
  List.iter
    (fun (w, k) ->
      let i = (String.length w * 26) + Char.code w.[0] - Char.code 'a' in
      b.(i) <- b.(i) @ [ (w, Some k) ])
    keywords;
  b

(* Top-level rather than local so that no closure is allocated per call. *)
let rec same_ci s start len w i =
  i >= len
  || Char.lowercase_ascii (String.unsafe_get s (start + i))
     = String.unsafe_get w i
     && same_ci s start len w (i + 1)

let rec find_keyword s start len = function
  | [] -> None
  | (w, k) :: rest ->
      if same_ci s start len w 1 then k else find_keyword s start len rest

(** [keyword_of_range s start len] is the keyword kind of the byte range
    [s.[start .. start+len-1]], compared case-insensitively in place: no
    copy and no allocation. *)
let keyword_of_range s start len =
  if len < 2 || len > max_keyword_len then None
  else
    let c = Char.lowercase_ascii (String.unsafe_get s start) in
    if c < 'a' || c > 'z' then None
    else
      find_keyword s start len
        keyword_buckets.((len * 26) + Char.code c - Char.code 'a')

let keyword_kind s = keyword_of_range s 0 (String.length s)

let is_punct t c =
  t.kind = Punct
  && String.length t.lexeme = 1
  && String.unsafe_get t.lexeme 0 = c

let pp ppf t = Format.fprintf ppf "%s(%S)@%d" (name t.kind) t.lexeme t.line

let equal_kind (a : kind) (b : kind) = a = b
