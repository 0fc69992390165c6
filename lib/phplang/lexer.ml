(** PHP tokenizer — the [token_get_all] equivalent that phpSAFE's model
    construction stage builds on (paper §III.B).

    The lexer recognises the PHP 5 subset used by WordPress-style plugins:
    open/close tags with inline HTML, variables, identifiers/keywords,
    integer/float literals, single- and double-quoted strings (the latter kept
    raw; interpolation is expanded by the parser), comments, casts and the
    full operator set in {!Token.kind}.

    The scanner dispatches on the current byte and compares further bytes in
    place: no probe copies the source, and the only allocations are the
    tokens themselves and the lexemes that are not shared.  Helpers are
    top-level functions taking every value they use, so no closure is built
    per token. *)

exception Error of string * int  (** message, line *)

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable in_php : bool;  (* inside <?php ... ?> *)
  mutable keys : string array;
      (* intern table: open addressing over the lexemes met so far, probed
         with byte ranges of [src]; "" marks a free slot (no interned
         lexeme is empty).  Per state, so concurrent domains never share
         it. *)
  mutable kinds : Token.kind array;  (* the token kind of each [keys] slot *)
  mutable count : int;  (* occupied slots *)
  mutable hits : int;  (* lexer.intern.* counts, flushed once per run *)
  mutable bytes_saved : int;
}

let init ~pos ~line ~in_php src =
  { src; len = String.length src; pos; line; in_php;
    keys = Array.make 256 ""; kinds = Array.make 256 Token.T_EOF; count = 0;
    hits = 0; bytes_saved = 0 }

let fail st msg = raise (Error (msg, st.line))

(* The byte at [p], or NUL past the end (NUL never continues a token). *)
let byte st p = if p < st.len then String.unsafe_get st.src p else '\000'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_bin_digit c = c = '0' || c = '1'

(* First index at or after [i] whose byte fails [pred]. *)
let rec scan_while pred src len i =
  if i < len && pred (String.unsafe_get src i) then
    scan_while pred src len (i + 1)
  else i

let is_blank c = c = ' ' || c = '\t'

let rec count_newlines src i stop acc =
  if i >= stop then acc
  else
    count_newlines src (i + 1) stop
      (if String.unsafe_get src i = '\n' then acc + 1 else acc)

let rec bytes_equal a ai b bi n =
  n = 0
  || String.unsafe_get a ai = String.unsafe_get b bi
     && bytes_equal a (ai + 1) b (bi + 1) (n - 1)

(* ------------------------------------------------------------------ *)
(* Lexeme interning                                                   *)
(* ------------------------------------------------------------------ *)

(* The first occurrence of a lexeme is kept and every later equal lexeme
   returns the retained string.  A lookup hashes and compares the source
   bytes in place, so a hit allocates nothing; the counters record each
   avoided allocation. *)

let hash_range src start len =
  let h = ref 0 in
  for i = start to start + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get src i)) * 0x01000193
  done;
  !h lxor (!h lsr 17)

let rec find_slot keys mask src start len i =
  let k = Array.unsafe_get keys i in
  if String.length k = 0
     || (String.length k = len && bytes_equal k 0 src start len)
  then i
  else find_slot keys mask src start len ((i + 1) land mask)

let grow st =
  let n = 2 * Array.length st.keys in
  let keys = Array.make n "" and kinds = Array.make n Token.T_EOF in
  Array.iteri
    (fun j k ->
      if String.length k > 0 then begin
        let len = String.length k in
        let h = hash_range k 0 len in
        let i = find_slot keys (n - 1) k 0 len (h land (n - 1)) in
        keys.(i) <- k;
        kinds.(i) <- st.kinds.(j)
      end)
    st.keys;
  st.keys <- keys;
  st.kinds <- kinds

(* Slot index of [src.[start .. start+len-1]], inserting it on a miss with
   kind [kind] — except that an identifier ([T_STRING]) is resolved against
   the keyword table, once per distinct spelling. *)
let rec intern st start len kind =
  let mask = Array.length st.keys - 1 in
  let h = hash_range st.src start len in
  let i = find_slot st.keys mask st.src start len (h land mask) in
  if String.length (Array.unsafe_get st.keys i) > 0 then begin
    st.hits <- st.hits + 1;
    st.bytes_saved <- st.bytes_saved + len;
    i
  end
  else if 2 * (st.count + 1) > Array.length st.keys then begin
    grow st;
    intern st start len kind
  end
  else begin
    st.keys.(i) <- String.sub st.src start len;
    st.kinds.(i) <-
      (if kind <> Token.T_STRING then kind
       else
         match Token.keyword_of_range st.src start len with
         | Some k -> k
         | None -> Token.T_STRING);
    st.count <- st.count + 1;
    i
  end

(* The interned token spanning [start, st.pos). *)
let interned st start kind line =
  let i = intern st start (st.pos - start) kind in
  Token.make (Array.unsafe_get st.kinds i) (Array.unsafe_get st.keys i) line

let flush_counters st =
  if st.hits > 0 then begin
    Obs.add "lexer.intern.hits" st.hits;
    Obs.add "lexer.intern.bytes_saved" st.bytes_saved;
    st.hits <- 0;
    st.bytes_saved <- 0
  end

(* Run [f st], flushing the intern counters however it ends. *)
let counted st f =
  Fun.protect ~finally:(fun () -> flush_counters st) (fun () -> f st)

(* ------------------------------------------------------------------ *)
(* Scanners                                                           *)
(* ------------------------------------------------------------------ *)

(* The token spanning [start, st.pos), its lexeme copied from the source. *)
let sub_token st kind start line =
  Token.make kind (String.sub st.src start (st.pos - start)) line

let skip_ws st =
  let src = st.src and len = st.len in
  let i = ref st.pos and line = ref st.line in
  while
    !i < len
    &&
    match String.unsafe_get src !i with
    | ' ' | '\t' | '\r' -> true
    | '\n' ->
        incr line;
        true
    | _ -> false
  do
    incr i
  done;
  st.pos <- !i;
  st.line <- !line

(* [//] or [#] comment: up to, not including, the newline. *)
let skip_line_comment st =
  st.pos <- scan_while (fun c -> c <> '\n') st.src st.len st.pos

(* [/* ... */]; an unterminated comment fails on its first line. *)
let skip_block_comment st =
  let src = st.src and len = st.len in
  let i = ref (st.pos + 2) and line = ref st.line in
  while
    !i + 1 < len
    && not
         (String.unsafe_get src !i = '*'
         && String.unsafe_get src (!i + 1) = '/')
  do
    if String.unsafe_get src !i = '\n' then incr line;
    incr i
  done;
  if !i + 1 >= len then fail st "unterminated block comment";
  st.pos <- !i + 2;
  st.line <- !line

(* Inline HTML up to the next open tag (or EOF). *)
let lex_inline_html st =
  let start = st.pos and line = st.line in
  let src = st.src and len = st.len in
  let i = ref start in
  while
    !i < len
    && not (String.unsafe_get src !i = '<' && !i + 1 < len
            && String.unsafe_get src (!i + 1) = '?')
  do
    incr i
  done;
  st.pos <- !i;
  st.line <- count_newlines src start !i st.line;
  sub_token st Token.T_INLINE_HTML start line

(* A quoted string up to the next unescaped [quote]; the lexeme is the raw
   source text, quotes included.  A backslash consumes the next byte too,
   and a consumed newline still advances the line counter. *)
let lex_quoted st quote kind unterminated =
  let start = st.pos and line = st.line in
  let src = st.src and len = st.len in
  let i = ref (start + 1) and closed = ref false in
  while not !closed do
    if !i >= len then fail st unterminated;
    let c = String.unsafe_get src !i in
    if c = '\n' then st.line <- st.line + 1;
    if c = '\\' && !i + 1 < len then begin
      if String.unsafe_get src (!i + 1) = '\n' then st.line <- st.line + 1;
      i := !i + 2
    end
    else begin
      incr i;
      closed := c = quote
    end
  done;
  st.pos <- !i;
  sub_token st kind start line

(* Integer and float literals: decimal and leading-zero octal integers,
   0x../0b.. hex and binary, d.d floats and exponent notation (1e3, 1.5E-2,
   2e+10).  A trailing 'e' with no digits is not an exponent — "5en" stays
   T_LNUMBER "5" followed by an identifier, like PHP. *)
let lex_number st =
  let start = st.pos and line = st.line in
  let src = st.src and len = st.len in
  let zero = String.unsafe_get src start = '0' and c1 = byte st (start + 1) in
  if zero && (c1 = 'x' || c1 = 'X') && is_hex_digit (byte st (start + 2))
  then begin
    st.pos <- scan_while is_hex_digit src len (start + 2);
    sub_token st Token.T_LNUMBER start line
  end
  else if zero && (c1 = 'b' || c1 = 'B') && is_bin_digit (byte st (start + 2))
  then begin
    st.pos <- scan_while is_bin_digit src len (start + 2);
    sub_token st Token.T_LNUMBER start line
  end
  else begin
    let i = ref (scan_while is_digit src len start) and float = ref false in
    if byte st !i = '.' && is_digit (byte st (!i + 1)) then begin
      i := scan_while is_digit src len (!i + 1);
      float := true
    end;
    (match byte st !i with
    | 'e' | 'E' ->
        let d =
          match byte st (!i + 1) with '+' | '-' -> !i + 2 | _ -> !i + 1
        in
        if is_digit (byte st d) then begin
          i := scan_while is_digit src len d;
          float := true
        end
    | _ -> ());
    st.pos <- !i;
    sub_token st
      (if !float then Token.T_DNUMBER else Token.T_LNUMBER)
      start line
  end

let cast_names =
  [ ("int", Some Token.T_INT_CAST); ("integer", Some Token.T_INT_CAST);
    ("float", Some Token.T_FLOAT_CAST); ("double", Some Token.T_FLOAT_CAST);
    ("real", Some Token.T_FLOAT_CAST); ("string", Some Token.T_STRING_CAST);
    ("array", Some Token.T_ARRAY_CAST); ("bool", Some Token.T_BOOL_CAST);
    ("boolean", Some Token.T_BOOL_CAST) ]

let rec cast_kind src start len = function
  | [] -> None
  | (w, k) :: rest ->
      if String.length w = len && Token.same_ci src start len w 0 then k
      else cast_kind src start len rest

(* '(': a cast token when followed by blanks* typename blanks* ')',
   otherwise the punctuation. *)
let lex_open_paren st =
  let start = st.pos and line = st.line in
  let src = st.src and len = st.len in
  let i = scan_while is_blank src len (start + 1) in
  let j = scan_while is_ident_char src len i in
  let k = scan_while is_blank src len j in
  let kind =
    if j > i && k < len && String.unsafe_get src k = ')' then
      cast_kind src i (j - i) cast_names
    else None
  in
  match kind with
  | Some kind ->
      st.pos <- k + 1;
      sub_token st kind start line
  | None ->
      st.pos <- start + 1;
      Token.make Token.Punct "(" line

(* Start of the line, at or after [i], that begins with the closing label
   [src.[label .. label+n-1]]. *)
let rec find_heredoc_close st label n i =
  let src = st.src and len = st.len in
  if i >= len then fail st "unterminated heredoc"
  else if
    i + n <= len
    && bytes_equal src i src label n
    && (i + n = len
        || match String.unsafe_get src (i + n) with
           | ';' | '\n' | '\r' -> true
           | _ -> false)
  then i
  else
    let j = scan_while (fun c -> c <> '\n') src len i in
    if j >= len then fail st "unterminated heredoc"
    else find_heredoc_close st label n (j + 1)

(* Heredoc / nowdoc literals (PHP 5 closing rule: the label starts in
   column 0, optionally followed by a single [;]).  [<<<EOT] and
   [<<<"EOT"] interpolate (T_HEREDOC); [<<<'EOT'] does not (T_NOWDOC).
   Unlike the quoted-string tokens, the lexeme is the {e raw body} with no
   quote framing — the parser feeds it to its interpolation scanner (or
   takes it verbatim for a nowdoc), so bodies containing quotes or
   backslashes survive unharmed.  Bodies are not interned: each one is
   unique, so interning would only grow the table. *)
let lex_heredoc st =
  let line = st.line in
  let src = st.src and len = st.len in
  st.pos <- scan_while is_blank src len (st.pos + 3);
  let quote =
    match byte st st.pos with
    | ('\'' | '"') as q ->
        st.pos <- st.pos + 1;
        q
    | _ -> '\000'
  in
  let label = st.pos in
  st.pos <- scan_while is_ident_char src len label;
  let n = st.pos - label in
  if n = 0 then fail st "heredoc: missing label after <<<";
  if quote <> '\000' then
    if byte st st.pos = quote then st.pos <- st.pos + 1
    else fail st "heredoc: unterminated label quote";
  if byte st st.pos = '\r' then st.pos <- st.pos + 1;
  if byte st st.pos = '\n' then begin
    st.line <- st.line + 1;
    st.pos <- st.pos + 1
  end
  else fail st "heredoc: label must be followed by a newline";
  let body_start = st.pos in
  let close = find_heredoc_close st label n body_start in
  (* the newline that precedes the closing label belongs to the delimiter,
     not the body *)
  let body_end =
    if close > body_start && src.[close - 1] = '\n' then
      if close - 1 > body_start && src.[close - 2] = '\r' then close - 2
      else close - 1
    else close
  in
  st.line <- count_newlines src body_start close st.line;
  st.pos <- close + n;
  Token.make
    (if quote = '\'' then Token.T_NOWDOC else Token.T_HEREDOC)
    (String.sub src body_start (body_end - body_start))
    line

(* Shared one-character lexemes for punctuation — immutable, so safe to
   share across domains. *)
let single_char = Array.init 256 (fun i -> String.make 1 (Char.chr i))

let punct st c line =
  st.pos <- st.pos + 1;
  Token.make Token.Punct single_char.(Char.code c) line

let op st n kind lexeme line =
  st.pos <- st.pos + n;
  Token.make kind lexeme line

(* Inside PHP: skip the whitespace run or comment at [st.pos] and return
   its token kind, or [None] when the next token is significant. *)
let skip_trivia st =
  match String.unsafe_get st.src st.pos with
  | ' ' | '\t' | '\n' | '\r' ->
      skip_ws st;
      Some Token.T_WHITESPACE
  | '#' ->
      skip_line_comment st;
      Some Token.T_COMMENT
  | '/' -> (
      match byte st (st.pos + 1) with
      | '/' ->
          skip_line_comment st;
          Some Token.T_COMMENT
      | '*' ->
          let doc = byte st (st.pos + 2) = '*' && byte st (st.pos + 3) <> '/' in
          skip_block_comment st;
          if doc then Some Token.T_DOC_COMMENT else Some Token.T_COMMENT
      | _ -> None)
  | _ -> None

(* A significant PHP token: dispatch on its first byte, then on the
   second for the two- and three-byte operators. *)
let lex_significant st =
  let line = st.line and pos = st.pos in
  let c = String.unsafe_get st.src pos and c1 = byte st (pos + 1) in
  match c with
  | '$' when is_ident_start c1 ->
      st.pos <- scan_while is_ident_char st.src st.len (pos + 1);
      interned st pos Token.T_VARIABLE line
  | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      st.pos <- scan_while is_ident_char st.src st.len (pos + 1);
      interned st pos Token.T_STRING line
  | '0' .. '9' -> lex_number st
  | '\'' ->
      lex_quoted st '\'' Token.T_CONSTANT_STRING
        "unterminated single-quoted string"
  | '"' ->
      lex_quoted st '"' Token.T_ENCAPSED_STRING
        "unterminated double-quoted string"
  | '/' ->
      if c1 = '=' then op st 2 Token.T_DIV_EQUAL "/=" line else punct st c line
  | '?' -> (
      match c1 with
      | '>' ->
          st.pos <- pos + 2;
          st.in_php <- false;
          (* PHP consumes a single newline straight after the close tag. *)
          if byte st st.pos = '\n' then begin
            st.line <- st.line + 1;
            st.pos <- st.pos + 1
          end;
          Token.make Token.T_CLOSE_TAG "?>" line
      | '?' -> op st 2 Token.T_COALESCE "??" line
      | _ -> punct st c line)
  | '=' -> (
      match c1 with
      | '=' ->
          if byte st (pos + 2) = '=' then
            op st 3 Token.T_IS_IDENTICAL "===" line
          else op st 2 Token.T_IS_EQUAL "==" line
      | '>' -> op st 2 Token.T_DOUBLE_ARROW "=>" line
      | _ -> punct st c line)
  | '!' ->
      if c1 <> '=' then punct st c line
      else if byte st (pos + 2) = '=' then
        op st 3 Token.T_IS_NOT_IDENTICAL "!==" line
      else op st 2 Token.T_IS_NOT_EQUAL "!=" line
  | '<' -> (
      match c1 with
      | '<' when byte st (pos + 2) = '<' -> lex_heredoc st
      | '=' -> op st 2 Token.T_IS_SMALLER_OR_EQUAL "<=" line
      | _ -> punct st c line)
  | '>' ->
      if c1 = '=' then op st 2 Token.T_IS_GREATER_OR_EQUAL ">=" line
      else punct st c line
  | '-' -> (
      match c1 with
      | '>' -> op st 2 Token.T_OBJECT_OPERATOR "->" line
      | '=' -> op st 2 Token.T_MINUS_EQUAL "-=" line
      | '-' -> op st 2 Token.T_DEC "--" line
      | _ -> punct st c line)
  | '+' -> (
      match c1 with
      | '=' -> op st 2 Token.T_PLUS_EQUAL "+=" line
      | '+' -> op st 2 Token.T_INC "++" line
      | _ -> punct st c line)
  | '*' ->
      if c1 = '=' then op st 2 Token.T_MUL_EQUAL "*=" line else punct st c line
  | '.' ->
      if c1 = '=' then op st 2 Token.T_CONCAT_EQUAL ".=" line
      else punct st c line
  | '%' ->
      if c1 = '=' then op st 2 Token.T_MOD_EQUAL "%=" line else punct st c line
  | ':' ->
      if c1 = ':' then op st 2 Token.T_DOUBLE_COLON "::" line
      else punct st c line
  | '&' ->
      if c1 = '&' then op st 2 Token.T_BOOLEAN_AND "&&" line
      else punct st c line
  | '|' ->
      if c1 = '|' then op st 2 Token.T_BOOLEAN_OR "||" line
      else punct st c line
  | '(' -> lex_open_paren st
  | ';' | ',' | ')' | '{' | '}' | '[' | ']' | '@' | '^' | '~' | '$' ->
      punct st c line
  | _ -> fail st (Printf.sprintf "unexpected character %C" c)

let lex_php_token st =
  let line = st.line and pos = st.pos in
  match skip_trivia st with
  | Some Token.T_WHITESPACE -> interned st pos Token.T_WHITESPACE line
  | Some kind -> sub_token st kind pos line
  | None -> lex_significant st

(* One token from the current lexer state.  The precondition is
   [st.pos < String.length st.src]; the caller emits T_EOF itself.  Every
   path captures [st.line] before consuming input, so a token's [line] is
   always the lexer's line counter at the token's first byte — the
   incremental machinery below depends on that to reconstruct checkpoints
   from the token array alone. *)
let step st =
  if st.in_php then lex_php_token st
  else
    let p = st.pos and line = st.line in
    if byte st p = '<' && byte st (p + 1) = '?' then begin
      st.in_php <- true;
      if p + 5 <= st.len && Token.same_ci st.src (p + 2) 3 "php" 0 then
        op st 5 Token.T_OPEN_TAG "<?php" line
      else if byte st (p + 2) = '=' then
        (* short echo tag: open-tag + echo in one token *)
        op st 3 Token.T_OPEN_TAG_WITH_ECHO "<?=" line
      else op st 2 Token.T_OPEN_TAG "<?" line
    end
    else lex_inline_html st

let eof st = Token.make Token.T_EOF "" st.line

(** Tokenize a full PHP source file.  Returns every token, including
    whitespace and comments, terminated by a single {!Token.T_EOF}. *)
let tokenize src =
  counted (init ~pos:0 ~line:1 ~in_php:false src) (fun st ->
      let rec loop acc =
        if st.pos >= st.len then List.rev (eof st :: acc)
        else loop (step st :: acc)
      in
      loop [])

(** Drop whitespace and comments — phpSAFE "cleans the AST by removing
    comments and extra whitespaces" (§III.B). *)
let significant tokens =
  List.filter
    (fun (t : Token.t) ->
      match t.Token.kind with
      | Token.T_WHITESPACE | Token.T_COMMENT | Token.T_DOC_COMMENT -> false
      | _ -> true)
    tokens

(* [significant (tokenize src)], without building the dropped tokens. *)
let tokenize_significant src =
  counted (init ~pos:0 ~line:1 ~in_php:false src) (fun st ->
      let rec loop acc =
        if st.pos >= st.len then List.rev (eof st :: acc)
        else if st.in_php && Option.is_some (skip_trivia st) then loop acc
        else loop (step st :: acc)
      in
      loop [])

(* ------------------------------------------------------------------ *)
(* Checkpointed incremental lexing                                    *)
(* ------------------------------------------------------------------ *)

(* The lexer's complete inter-token state is (pos, line, in_php): the
   intern table is semantically transparent, and multi-line constructs
   (heredocs, block comments, strings) are consumed whole inside a single
   [step], so there is no heredoc-label stack to snapshot between tokens.
   A checkpoint is that triple plus the index of the next token to be
   produced. *)

type checkpoint = {
  ck_index : int;  (* tokens [0, ck_index) precede this boundary *)
  ck_pos : int;
  ck_line : int;
  ck_in_php : bool;
}

type lexed = {
  lx_src : string;
  lx_tokens : Token.t array;  (* includes the trailing T_EOF *)
  lx_starts : int array;
      (* lx_starts.(i) = byte offset of token i's first byte; the trailing
         T_EOF entry is String.length lx_src.  Strictly increasing: tokens
         tile the source with no gaps. *)
  lx_php : bool array;  (* in_php at each token's start, same length *)
  lx_ckpts : checkpoint array;  (* ascending ck_index, first is index 0 *)
}

let checkpoint_interval = 32

(* The deepest lookahead past an emitted token's end is 3 bytes
   (lex_number's signed-exponent probe); anything at distance >= 8 from the
   first changed byte is therefore lexed from unchanged input only.  The
   margin also keeps a resumed run clear of multi-byte operators that start
   just before the damage. *)
let resume_margin = 8

(* Checkpoints are derived from the token arrays after the fact: because
   every token records the line of its first byte and tokens tile the
   source, the lexer state at the boundary before token i is exactly
   (lx_starts.(i), tokens.(i).line, lx_php.(i)). *)
let derive_ckpts (tokens : Token.t array) (starts : int array)
    (php : bool array) =
  let n = Array.length tokens in
  let acc = ref [] in
  let i = ref 0 in
  while !i < n do
    acc :=
      {
        ck_index = !i;
        ck_pos = starts.(!i);
        ck_line = tokens.(!i).Token.line;
        ck_in_php = php.(!i);
      }
      :: !acc;
    i := !i + checkpoint_interval
  done;
  Array.of_list (List.rev !acc)

(* Tokens with their start offsets and modes, in growable arrays. *)
type run = {
  mutable r_tokens : Token.t array;
  mutable r_starts : int array;
  mutable r_php : bool array;
  mutable r_n : int;
}

let run_create hint =
  let n = max 16 hint in
  { r_tokens = Array.make n Token.placeholder;
    r_starts = Array.make n 0; r_php = Array.make n false; r_n = 0 }

let run_push r t start php =
  if r.r_n = Array.length r.r_tokens then begin
    let n = 2 * r.r_n in
    let extend a fill = Array.append a (Array.make (n - Array.length a) fill) in
    r.r_tokens <- extend r.r_tokens Token.placeholder;
    r.r_starts <- extend r.r_starts 0;
    r.r_php <- extend r.r_php false
  end;
  r.r_tokens.(r.r_n) <- t;
  r.r_starts.(r.r_n) <- start;
  r.r_php.(r.r_n) <- php;
  r.r_n <- r.r_n + 1

(* Lex forward from the state's position, recording each token's start and
   mode, while [go st] holds and input remains. *)
let lex_run st r go =
  while st.pos < st.len && go st do
    let start = st.pos and php = st.in_php in
    run_push r (step st) start php
  done

let lex_all src : lexed =
  counted (init ~pos:0 ~line:1 ~in_php:false src) (fun st ->
      (* plugin code averages over four bytes per token *)
      let r = run_create (st.len / 4) in
      lex_run st r (fun _ -> true);
      run_push r (eof st) st.len st.in_php;
      let tokens = Array.sub r.r_tokens 0 r.r_n in
      let starts = Array.sub r.r_starts 0 r.r_n in
      let php = Array.sub r.r_php 0 r.r_n in
      {
        lx_src = src;
        lx_tokens = tokens;
        lx_starts = starts;
        lx_php = php;
        lx_ckpts = derive_ckpts tokens starts php;
      })

(* Binary search: index i with starts.(i) = pos, if any. *)
let token_index_of_start (starts : int array) pos =
  let lo = ref 0 and hi = ref (Array.length starts - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = starts.(mid) in
    if v = pos then found := mid
    else if v < pos then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then None else Some !found

type relex_info = {
  rl_prefix : int;  (* old tokens [0, rl_prefix) reused verbatim *)
  rl_old_suffix : int;  (* old tokens [rl_old_suffix, n_old) reused *)
  rl_new_suffix : int;  (* ... appearing at [rl_new_suffix, n_new) *)
  rl_line_delta : int;  (* line shift applied to the reused suffix *)
}

let relex (old : lexed) (src : string) : lexed * relex_info =
  let olen = String.length old.lx_src and nlen = String.length src in
  let n_old = Array.length old.lx_tokens in
  (* damage region = everything between the byte-level common prefix and
     the (non-overlapping) common suffix *)
  let maxp = min olen nlen in
  let p = ref 0 in
  while !p < maxp && old.lx_src.[!p] = src.[!p] do Stdlib.incr p done;
  let p = !p in
  if p = olen && olen = nlen then
    ( old,
      {
        rl_prefix = n_old;
        rl_old_suffix = n_old;
        rl_new_suffix = n_old;
        rl_line_delta = 0;
      } )
  else begin
    let s = ref 0 in
    let maxs = maxp - p in
    while
      !s < maxs && old.lx_src.[olen - 1 - !s] = src.[nlen - 1 - !s]
    do
      Stdlib.incr s
    done;
    let s = !s in
    let delta = nlen - olen in
    let damage_new_end = nlen - s in
    (* resume from the last checkpoint safely before the damage *)
    let resume_limit =
      let limit = p - resume_margin in
      (* try_lex_cast probes forward over '(' ws* ident ws* ')' with no
         length bound, so an edit can retroactively flip a distant '('
         between Punct and a cast token.  If the bytes leading back from
         the damage are all spaces/tabs/ident chars and hit a '(', that
         parenthesis must be re-lexed too. *)
      let r = ref p in
      while
        !r > 0
        &&
        let c = old.lx_src.[!r - 1] in
        c = ' ' || c = '\t' || is_ident_char c
      do
        Stdlib.decr r
      done;
      if !r > 0 && old.lx_src.[!r - 1] = '(' then min limit (!r - 1)
      else limit
    in
    let ck = ref old.lx_ckpts.(0) in
    Array.iter
      (fun c ->
        if c.ck_pos <= resume_limit && c.ck_index >= !ck.ck_index then
          ck := c)
      old.lx_ckpts;
    let ck = !ck in
    Obs.Mirror.incr "lexer.ckpt.resume";
    let st = init ~pos:ck.ck_pos ~line:ck.ck_line ~in_php:ck.ck_in_php src in
    (* lex forward until the token stream re-synchronizes with the old one:
       same byte position (modulo the length delta) past the damage, same
       PHP/HTML mode *)
    let fresh = run_create 64 in
    let resync = ref (-1) in
    counted st (fun st ->
        lex_run st fresh (fun st ->
            (if st.pos >= damage_new_end then
               match token_index_of_start old.lx_starts (st.pos - delta) with
               | Some i when old.lx_php.(i) = st.in_php && i < n_old - 1 ->
                   resync := i
               | _ -> ());
            !resync < 0));
    let fresh_count = fresh.r_n in
    Obs.Mirror.add "lexer.ckpt.resync_tokens" fresh_count;
    let resync = if !resync >= 0 then Some !resync else None in
    let line_delta =
      match resync with
      | Some i -> st.line - old.lx_tokens.(i).Token.line
      | None -> 0
    in
    let n_suffix = match resync with Some i -> n_old - i | None -> 0 in
    let n_new =
      ck.ck_index + fresh_count + n_suffix
      + (match resync with None -> 1 | Some _ -> 0)
    in
    let tokens = Array.make n_new Token.placeholder in
    let starts_a = Array.make n_new 0 and php_a = Array.make n_new false in
    Array.blit old.lx_tokens 0 tokens 0 ck.ck_index;
    Array.blit old.lx_starts 0 starts_a 0 ck.ck_index;
    Array.blit old.lx_php 0 php_a 0 ck.ck_index;
    Array.blit fresh.r_tokens 0 tokens ck.ck_index fresh_count;
    Array.blit fresh.r_starts 0 starts_a ck.ck_index fresh_count;
    Array.blit fresh.r_php 0 php_a ck.ck_index fresh_count;
    (match resync with
    | Some i ->
        let base = ck.ck_index + fresh_count in
        for k = 0 to n_suffix - 1 do
          let t = old.lx_tokens.(i + k) in
          tokens.(base + k) <-
            (if line_delta = 0 then t
             else Token.make t.Token.kind t.Token.lexeme
                    (t.Token.line + line_delta));
          starts_a.(base + k) <- old.lx_starts.(i + k) + delta;
          php_a.(base + k) <- old.lx_php.(i + k)
        done
    | None ->
        let i = n_new - 1 in
        tokens.(i) <- Token.make Token.T_EOF "" st.line;
        starts_a.(i) <- nlen;
        php_a.(i) <- st.in_php);
    let result =
      {
        lx_src = src;
        lx_tokens = tokens;
        lx_starts = starts_a;
        lx_php = php_a;
        lx_ckpts = derive_ckpts tokens starts_a php_a;
      }
    in
    let info =
      match resync with
      | Some i ->
          {
            rl_prefix = ck.ck_index;
            rl_old_suffix = i;
            rl_new_suffix = ck.ck_index + fresh_count;
            rl_line_delta = line_delta;
          }
      | None ->
          {
            rl_prefix = ck.ck_index;
            rl_old_suffix = n_old;
            rl_new_suffix = n_new;
            rl_line_delta = 0;
          }
    in
    (result, info)
  end

let tokens_of_lexed (l : lexed) = Array.to_list l.lx_tokens
