extern int printf(char *f, ...);

int g;
char gc;
int tab[4];

int id(int x) { return x; }

int twice(int x) { return x + x; }

int shapes(int n) {
	int a; int b; char c; int *p; int (*fp)(int);
	a = n; b = 3; c = 'x';
	g = a + 1; gc = c;
	a = a + 1; a = a - 1; a = a * 2; a = a / 2; a = a % 7;
	a = a & 15; a = a | 1; a = a ^ 2; a = a << 1; a = a >> 1;
	b = -b; b = ~b;
	b = a == 1; b = a != 1; b = a < 1; b = a <= 1; b = a > 1; b = a >= 1;
	p = &tab[1]; *p = 5; a = a + *p;
	tab[2] = 7; gc = 0; g = 0;
	if (!(a < b)) a = a + 1;
	if (a == 3) a = a + 1;
	if (a > 2 || b == 1) a = a - 1;
	while (a < n) a++;
	fp = twice;
	a = fp(a) + id(0) + fp(1);
	printf("%d %d %d\n", a, g, gc);
	if (n > 1) return 0;
	return a;
}

int main() {
	int i; int s;
	s = 0;
	for (i = 0; i < 3; i++) s = s + shapes(i);
	printf("%d\n", s);
	return s / 0;
}
