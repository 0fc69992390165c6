(** Tests for the report outputs: the HTML review page (§III.D web output)
    and the text pretty-printers. *)

open Secflow

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let sample_result =
  Phpsafe.analyze_source ~file:"plugin.php"
    "<?php\n$x = $_GET['q<script>'];\necho $x;\n$id = $_POST['id'];\n$wpdb->query(\"DELETE $id\");"

let case name f = Alcotest.test_case name `Quick f

(* One project exercising all six vulnerability kinds; the second-order
   finding needs the two-phase pass (stored write in one file, read-back
   SQL sink in another). *)
let all_kinds_result =
  Phpsafe.analyze_project_so
    (Phplang.Project.make ~name:"kinds"
       [ { Phplang.Project.path = "store.php";
           source = "<?php update_option('ak_banner', $_POST['banner']);" };
         { Phplang.Project.path = "use.php";
           source =
             "<?php\n\
              echo $_GET['a'];\n\
              mysql_query(\"SELECT \" . $_POST['b']);\n\
              system('run ' . $_GET['c']);\n\
              readfile('/data/' . $_GET['d']);\n\
              wp_remote_get($_GET['e']);\n\
              $v = get_option('ak_banner');\n\
              $wpdb->query(\"UPDATE t SET b = '\" . $v . \"'\");" } ])

let html_cases =
  [
    case "renders a complete page" (fun () ->
        let html = Phpsafe.Report_html.render sample_result in
        Alcotest.(check bool) "doctype" true (contains html "<!DOCTYPE html>");
        Alcotest.(check bool) "closes body" true (contains html "</body></html>"));
    case "summary counts both kinds" (fun () ->
        let html = Phpsafe.Report_html.render sample_result in
        Alcotest.(check bool) "xss count" true (contains html "<b>1 XSS</b>");
        Alcotest.(check bool) "sqli count" true (contains html "<b>1 SQLi</b>"));
    case "summary and badges cover the new kinds" (fun () ->
        let html = Phpsafe.Report_html.render all_kinds_result in
        List.iter
          (fun k ->
            Alcotest.(check bool)
              ("count " ^ Vuln.kind_to_string k)
              true
              (contains html
                 (Printf.sprintf "<b>1 %s</b>" (Vuln.kind_to_string k)));
            Alcotest.(check bool)
              ("badge class " ^ Vuln.kind_spec_name k)
              true
              (contains html
                 (Printf.sprintf "class=\"finding %s\"" (Vuln.kind_spec_name k))))
          Vuln.all_kinds);
    case "shows sink location and data flow" (fun () ->
        let html = Phpsafe.Report_html.render sample_result in
        Alcotest.(check bool) "file:line" true (contains html "plugin.php:3");
        Alcotest.(check bool) "flow list" true (contains html "<ol class=\"flow\">");
        Alcotest.(check bool) "entry point" true (contains html "entry point"));
    case "escapes HTML in variable names" (fun () ->
        (* the tainted key contains <script>; it must not survive raw *)
        let html = Phpsafe.Report_html.render sample_result in
        Alcotest.(check bool) "no raw script tag" false (contains html "<script>"));
    case "escape_html covers the metacharacters" (fun () ->
        Alcotest.(check string) "escaped" "&lt;a href=&quot;x&amp;y&quot;&gt;&#39;"
          (Phpsafe.Report_html.escape_html "<a href=\"x&y\">'"));
    case "reports failed files" (fun () ->
        let result =
          { sample_result with
            Report.outcomes =
              [ ("plugin.php", Report.Analyzed);
                ("big.php", Report.Failed Report.Out_of_memory) ] }
        in
        let html = Phpsafe.Report_html.render result in
        Alcotest.(check bool) "section present" true
          (contains html "Files not analyzed");
        Alcotest.(check bool) "file listed" true (contains html "big.php"));
    case "clean result says so" (fun () ->
        let clean = Phpsafe.analyze_source ~file:"ok.php" "<?php echo 'hi';" in
        let html = Phpsafe.Report_html.render clean in
        Alcotest.(check bool) "no findings text" true
          (contains html "No vulnerabilities detected"));
    case "custom title is escaped and used" (fun () ->
        let html =
          Phpsafe.Report_html.render ~title:"scan <x>" sample_result
        in
        Alcotest.(check bool) "escaped title" true
          (contains html "<title>scan &lt;x&gt;</title>"));
    case "truncated traces are marked, complete ones are not" (fun () ->
        let truncated =
          { sample_result with
            Report.findings =
              List.map
                (fun f -> { f with Report.trace_truncated = true })
                sample_result.Report.findings }
        in
        let html = Phpsafe.Report_html.render truncated in
        Alcotest.(check bool) "note present" true
          (contains html "later steps dropped");
        let html' = Phpsafe.Report_html.render sample_result in
        Alcotest.(check bool) "absent when complete" false
          (contains html' "later steps dropped"));
    case "context and applied sanitizers render when present" (fun () ->
        let opts =
          { Phpsafe.default_options with Phpsafe.infer_contexts = true }
        in
        let r =
          Phpsafe.analyze_source ~opts ~file:"ctx.php"
            "<?php\n$v = htmlspecialchars($_GET['x']);\necho \"<input value=\" . $v . \">\";"
        in
        let html = Phpsafe.Report_html.render r in
        Alcotest.(check bool) "context shown" true
          (contains html "sink context");
        Alcotest.(check bool) "context value" true
          (contains html "html-attr-unquoted");
        Alcotest.(check bool) "sanitizer set shown" true
          (contains html "htmlspecialchars"));
  ]

let text_cases =
  [
    case "pp_finding mentions kind, sink and source" (fun () ->
        match sample_result.Report.findings with
        | f :: _ ->
            let text = Format.asprintf "%a" Report.pp_finding f in
            Alcotest.(check bool) "kind" true (contains text "XSS");
            Alcotest.(check bool) "sink" true (contains text "echo");
            Alcotest.(check bool) "source" true (contains text "$_GET")
        | [] -> Alcotest.fail "expected findings");
    case "pp_trace prints one line per hop" (fun () ->
        match sample_result.Report.findings with
        | f :: _ ->
            let text = Format.asprintf "%a" Report.pp_trace f in
            let lines =
              String.split_on_char '\n' text
              |> List.filter (fun l -> String.trim l <> "")
            in
            Alcotest.(check bool) "multiple hops" true (List.length lines >= 2)
        | [] -> Alcotest.fail "expected findings");
  ]

let json_cases =
  [
    case "json has schema, summary and findings" (fun () ->
        let j = Phpsafe.Report_json.render sample_result in
        Alcotest.(check bool) "schema" true
          (contains j "\"schema\":\"phpsafe-report/1\"");
        Alcotest.(check bool) "xss count" true (contains j "\"xss\":1");
        Alcotest.(check bool) "sqli count" true (contains j "\"sqli\":1");
        Alcotest.(check bool) "finding kind" true (contains j "\"kind\":\"XSS\"");
        Alcotest.(check bool) "data flow" true (contains j "\"dataFlow\":["));
    case "json records per-file outcomes" (fun () ->
        let j = Phpsafe.Report_json.render sample_result in
        Alcotest.(check bool) "file entry" true
          (contains j "\"file\":\"plugin.php\"");
        Alcotest.(check bool) "status" true (contains j "\"status\":\"analyzed\""));
    case "tool name is configurable" (fun () ->
        let j = Phpsafe.Report_json.render ~tool:"RIPS" sample_result in
        Alcotest.(check bool) "tool" true (contains j "\"tool\":\"RIPS\""));
    case "string escaping" (fun () ->
        let open Secflow.Json in
        Alcotest.(check string) "quotes and control chars"
          "\"a\\\"b\\\\c\\n\\u0001\""
          (to_string (String "a\"b\\c\n\001")));
    case "nested structure round-trips through the writer" (fun () ->
        let open Secflow.Json in
        let j =
          Obj
            [ ("a", List [ Int 1; Bool false; String "x" ]);
              ("b", Obj [ ("c", Int 2) ]) ]
        in
        Alcotest.(check string) "layout"
          "{\"a\":[1,false,\"x\"],\"b\":{\"c\":2}}" (to_string j));
    case "render delegates to the shared Secflow.Report encoder" (fun () ->
        Alcotest.(check string) "same bytes"
          (Secflow.Report.to_json ~tool:"RIPS" sample_result)
          (Phpsafe.Report_json.render ~tool:"RIPS" sample_result));
    case "vector classification included per finding" (fun () ->
        let j = Phpsafe.Report_json.render sample_result in
        Alcotest.(check bool) "GET vector" true (contains j "\"vector\":\"GET\""));
    case "all six kinds appear in findings and summary counts" (fun () ->
        let j = Secflow.Report.to_json ~tool:"phpSAFE" all_kinds_result in
        List.iter
          (fun k ->
            Alcotest.(check bool)
              ("finding kind " ^ Vuln.kind_to_string k)
              true
              (contains j
                 (Printf.sprintf "\"kind\":%s"
                    (Secflow.Json.to_string
                       (Secflow.Json.String (Vuln.kind_to_string k)))));
            Alcotest.(check bool)
              ("summary count " ^ Vuln.kind_spec_name k)
              true
              (contains j (Printf.sprintf "\"%s\":1" (Vuln.kind_spec_name k))))
          Vuln.all_kinds);
  ]

let stats_cases =
  let project =
    Phplang.Project.make ~name:"p"
      [ { Phplang.Project.path = "a.php";
          source =
            "<?php\n\
             function one($x) { echo $x; }\n\
             function two() { return 1; }\n\
             class C { public function m() {} public function n() {} }\n\
             $a = $_GET['q'];\n\
             echo $a;\n\
             print 'x';\n\
             include 'b.php';\n" };
        { Phplang.Project.path = "b.php"; source = "<?php $b = $_POST['y'];\n" } ]
  in
  [
    case "counts the §III.D resources" (fun () ->
        let st = Phpsafe.Stats.of_project project in
        Alcotest.(check int) "files" 2 st.Phpsafe.Stats.st_files;
        Alcotest.(check int) "functions" 2 st.Phpsafe.Stats.st_functions;
        Alcotest.(check int) "classes" 1 st.Phpsafe.Stats.st_classes;
        Alcotest.(check int) "methods" 2 st.Phpsafe.Stats.st_methods;
        Alcotest.(check int) "superglobal reads" 2
          st.Phpsafe.Stats.st_superglobal_reads;
        (* echo $x, echo $a, print 'x' *)
        Alcotest.(check int) "echo sinks" 3 st.Phpsafe.Stats.st_echo_sinks;
        Alcotest.(check int) "includes" 1 st.Phpsafe.Stats.st_includes;
        Alcotest.(check bool) "variables counted" true
          (st.Phpsafe.Stats.st_variables >= 4);
        Alcotest.(check bool) "tokens counted" true
          (st.Phpsafe.Stats.st_tokens > 30));
    case "parse failures degrade gracefully" (fun () ->
        let broken =
          Phplang.Project.make ~name:"p"
            [ { Phplang.Project.path = "bad.php"; source = "<?php $a = ;" };
              { Phplang.Project.path = "unlexable.php";
                source = "<?php\nfunction f() {}\n$s = 'unterminated;\n" };
              { Phplang.Project.path = "ok.php";
                source = "<?php function g() { echo 1; }" } ]
        in
        let st = Phpsafe.Stats.of_project broken in
        Alcotest.(check int) "files still counted" 3 st.Phpsafe.Stats.st_files;
        (* bad.php lexes to 5 significant tokens (incl. EOF), ok.php to 11;
           unlexable.php adds none *)
        Alcotest.(check int) "tokens of the lexable files" 16
          st.Phpsafe.Stats.st_tokens;
        Alcotest.(check int) "LOC of every file" 5 st.Phpsafe.Stats.st_loc;
        Alcotest.(check int) "only the parsable file's function" 1
          st.Phpsafe.Stats.st_functions);
    case "pp renders every field" (fun () ->
        let text = Format.asprintf "%a" Phpsafe.Stats.pp Phpsafe.Stats.empty in
        Alcotest.(check bool) "mentions tokens" true (contains text "tokens=0");
        Alcotest.(check bool) "mentions echo sinks" true
          (contains text "echo-sinks=0"));
  ]

let () =
  Alcotest.run "report"
    [ ("html", html_cases); ("text", text_cases); ("json", json_cases);
      ("stats (§III.D)", stats_cases) ]
