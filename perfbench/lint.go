package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"burstlink/internal/lint"
)

// The lint input is the module's non-test source at a fixed commit, not
// the working tree, so code later changes add does not move the lint
// numbers. Rebuild the archive with:
//
//	git archive --format=tar.gz -o perfbench/testdata/linttree.tar.gz <commit> -- \
//	    go.mod cmd internal examples ':(exclude,glob)**/*_test.go' ':(exclude,glob)**/testdata/**'
//
// and update both constants.
const (
	lintTreeCommit  = "8522b77e7a80d13954a448692e01eb633be7bdef"
	lintTreeSHA256  = "c3d56d86cc1da38724e90b2fa8e213daf2535f67b77224a24bcc7fb6ff945523"
	lintTreeArchive = "perfbench/testdata/linttree.tar.gz"
)

// pinnedTree verifies the pinned archive and unpacks it under build. A
// missing or altered archive is an error: the benchmark never falls
// back to linting the working tree.
func pinnedTree(archive, build string) (string, error) {
	data, err := os.ReadFile(archive)
	if err != nil {
		return "", fmt.Errorf("pinned lint tree (commit %s): %w; refusing to lint the working tree instead", lintTreeCommit[:12], err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != lintTreeSHA256 {
		return "", fmt.Errorf("pinned lint tree %s has sha256 %s, want %s (commit %s)",
			archive, got, lintTreeSHA256, lintTreeCommit[:12])
	}
	dir := filepath.Join(build, "linttree-"+lintTreeCommit[:12])
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := untar(data, dir); err != nil {
		return "", fmt.Errorf("unpacking pinned lint tree: %w", err)
	}
	return dir, nil
}

// untar unpacks the regular files of a gzipped tar under dir.
func untar(data []byte, dir string) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	tr := tar.NewReader(zr)
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		name := filepath.FromSlash(hdr.Name)
		if !filepath.IsLocal(name) {
			return fmt.Errorf("archive entry %q leaves the tree", hdr.Name)
		}
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			return err
		}
	}
}

// loadTree parses and type-checks every package of the pinned tree.
func loadTree(tree string) ([]*lint.Package, error) {
	pkgs, err := lint.Load(tree, []string{"./..."})
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			return nil, fmt.Errorf("pinned tree package %s does not type-check: %v", p.PkgPath, p.TypeErrors[0])
		}
	}
	return pkgs, nil
}

// lintBench repeats one full blklint analysis over the loaded tree;
// every pass must report exactly the findings of the first.
type lintBench struct {
	pkgs []*lint.Package
	want []lint.Finding
}

func setupLint(o options) (bench, error) {
	pkgs, err := loadTree(o.lintTree)
	if err != nil {
		return nil, err
	}
	return &lintBench{pkgs: pkgs, want: lint.RunAnalyzers(pkgs, lint.All())}, nil
}

func (l *lintBench) op(i int) error {
	return sameFindings(lint.RunAnalyzers(l.pkgs, lint.All()), l.want)
}

func sameFindings(got, want []lint.Finding) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("analysis pass reported %d findings, the first pass %d: %s",
			len(got), len(want), describeFindings(got))
	}
	return nil
}

func describeFindings(fs []lint.Finding) string {
	var b strings.Builder
	for i, f := range fs {
		if i == 3 {
			b.WriteString(" ...")
			break
		}
		fmt.Fprintf(&b, " [%s %s: %s]", f.Analyzer, f.Pos, f.Message)
	}
	return b.String()
}

// check has nothing left to compare: every timed pass was compared.
func (l *lintBench) check(*tally) {}

func (l *lintBench) info() map[string]any {
	return map[string]any{
		"lint_tree_commit": lintTreeCommit,
		"lint_packages":    len(l.pkgs),
		"lint_findings":    len(l.want),
	}
}

func (l *lintBench) close() error { return nil }
